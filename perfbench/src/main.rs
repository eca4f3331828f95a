//! Benchmark harness for the `segram` workloads in `perfbench/run.py`.
//!
//! Subcommands (each prints one JSON object on stdout):
//!
//! * `gen-ref`, `gen-reads`, `gen-store` — seeded input generation;
//! * `trace-map` — the traced, in-process map run (per-layer metrics);
//! * `trace-store` — store and shard layer timings;
//! * `truth` — reads mapped within a tolerance of their true origin;
//! * `identity` — a `.sgi` store's content identity.

mod args;
mod gen;
mod json;
mod span;
mod tracemap;
mod tracestore;
mod truth;

use args::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: segram-perfbench <command> [--key value ...]");
        std::process::exit(2);
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "gen-ref" => gen::gen_ref(&args),
        "gen-reads" => gen::gen_reads(&args),
        "gen-store" => gen::gen_store(&args),
        "trace-map" => tracemap::trace_map(&args),
        "trace-store" => tracestore::trace_store(&args),
        "truth" => truth::truth(&args),
        "identity" => truth::identity(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(json) => println!("{json}"),
        Err(message) => {
            eprintln!("segram-perfbench {command}: {message}");
            std::process::exit(1);
        }
    }
}
