//! Figure 6b, inter-device Ping-Pong throughput per scheme: `vscc_bench::fig6`.

fn main() {
    vscc_bench::run("fig6b_interdevice");
}
