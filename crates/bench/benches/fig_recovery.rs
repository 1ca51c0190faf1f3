//! The self-healing plane (DESIGN.md §5h), beyond the paper: `vscc_bench::recovery`.

fn main() {
    vscc_bench::run("fig_recovery");
}
