//! §3.3, the direct-transfer threshold: `vscc_bench::threshold`.

fn main() {
    vscc_bench::run("tbl_threshold");
}
