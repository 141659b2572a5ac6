"""spark-submit entrypoint reproducing paper Table 3 (see DESIGN.md index)."""
from _common import run_table
from repro.harness.tables import table3

if __name__ == "__main__":
    run_table(table3, "table3")
