"""Run every table harness in one session and write results/ markdown."""
import sys

from _common import get_spark
from repro.harness import tables as T


def main(scale: str = "mini") -> None:
    spark = get_spark()
    for i in range(1, 9):
        fn = getattr(T, f"table{i}")
        print(f"=== Table {i} (scale={scale}) ===", flush=True)
        df = fn(spark, scale)
        path = T.to_markdown(df, f"table{i}_{scale}")
        print(T.df_to_markdown(df))
        print(f"wrote results/{path.name}", flush=True)
    spark.stop()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "mini")
