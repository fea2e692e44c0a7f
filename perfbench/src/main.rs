//! `perfbench`: the ELBA-RS benchmark. One workload per invocation:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are simulated from `--seed`; the workload is measured for
//! `--seconds`; every output is checked; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md` for what each workload and
//! metric means.

mod assembly;
mod harness;
mod serve_open;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use elba_comm::Backend;
use elba_graph::SeedChaining;

use harness::{Shape, PHASES, RANK_ROWS};
use util::{Host, Tally};

/// What a workload runs.
pub enum Kind {
    /// Back-to-back assemblies of one dataset. `cross_check` names a
    /// second shape whose contigs must be byte-identical;
    /// `completeness_floor` is the ground-truth floor (with zero
    /// misassemblies) for the exact-alignment modes.
    Assembly {
        shape: Shape,
        cross_check: Option<Shape>,
        completeness_floor: Option<f64>,
    },
    /// Open-loop simulated jobs through `elba_core::Server`.
    Serve(serve_open::ServeSpec),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Latency limit for `serve_slo_met_frac`, seconds.
    pub slo_s: f64,
}

impl Workload {
    /// Ranks × threads the workload keeps busy at once.
    fn workers(&self) -> (usize, usize) {
        match &self.kind {
            Kind::Assembly { shape, .. } => (shape.ranks, shape.threads),
            Kind::Serve(s) => (s.groups * s.job.ranks, s.job.threads),
        }
    }
}

const ALIGN_SHAPE: Shape = Shape {
    scale: 0.2,
    ranks: 1,
    threads: 2,
    backend: Backend::InProcess,
    chaining: SeedChaining::Chain,
};

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "align-p1t2",
            kind: Kind::Assembly {
                shape: ALIGN_SHAPE,
                cross_check: None,
                completeness_floor: Some(90.0),
            },
            slo_s: 10.0,
        },
        Workload {
            name: "align-p4",
            kind: Kind::Assembly {
                shape: Shape {
                    ranks: 4,
                    threads: 1,
                    ..ALIGN_SHAPE
                },
                cross_check: Some(ALIGN_SHAPE),
                completeness_floor: Some(90.0),
            },
            slo_s: 10.0,
        },
        Workload {
            name: "sparse-p4-socket",
            kind: Kind::Assembly {
                shape: Shape {
                    scale: 1.0,
                    ranks: 4,
                    threads: 1,
                    backend: Backend::Socket,
                    chaining: SeedChaining::BestOnly,
                },
                cross_check: None,
                completeness_floor: None,
            },
            slo_s: 15.0,
        },
        Workload {
            name: "serve-open",
            kind: Kind::Serve(serve_open::ServeSpec::default()),
            slo_s: serve_open::SLO_S,
        },
    ]
}

/// End-to-end metrics, in output order, with units.
const END_TO_END: [(&str, &str); 9] = [
    ("assemble_s", "s"),
    ("assemble_cpu_s", "s"),
    ("setup_s", "s"),
    ("mem_hw_mib", "MiB"),
    ("completeness_pct", "%"),
    ("serve_jobs_per_min", "1/min"),
    ("serve_latency_p50_s", "s"),
    ("serve_latency_tail_s", "s"),
    ("serve_slo_met_frac", "fraction"),
];

/// Per-layer metrics, in output order, with units. A layer a workload
/// does not exercise reports 0 (e.g. ranks 1–3 on one rank, `serve.*`
/// on the assembly workloads).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("seq.store_s", "s"),
        ("seq.count_kmers_s", "s"),
        ("seq.build_a_triples_s", "s"),
        ("seq.scan_mbases_per_s", "Mbase/s"),
        ("seq.reliable_kmers", "count"),
        ("sparse.from_triples_s", "s"),
        ("sparse.candidate_matrix_s", "s"),
        ("sparse.spgemm_flops", "computed_flop"),
        ("sparse.spgemm_mflops_per_s", "Mflop/s"),
        ("sparse.c_nnz", "count"),
        ("sparse.model_pred_s", "s"),
        ("sparse.model_err", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in 0..RANK_ROWS {
        m.push((format!("align.busy_s.r{k}"), "s"));
    }
    for k in 0..RANK_ROWS {
        m.push((format!("align.pairs.r{k}"), "count"));
    }
    for (n, u) in [
        ("align.imbalance", "ratio"),
        ("align.idle_s", "s"),
        ("align.pairs_per_s", "1/s"),
        ("align.chains_extended", "count"),
        ("align.seeds_skipped", "count"),
        ("align.useful_frac", "fraction"),
        ("align.par_s", "s"),
        ("tr.s", "s"),
        ("tr.iterations", "count"),
        ("tr.removed", "count"),
        ("contig.s", "s"),
        ("contig.gather_s", "s"),
        ("contig.components", "count"),
        ("contig.branch_vertices", "count"),
        ("contig.partition_imbalance", "ratio"),
    ] {
        m.push((n.to_string(), u));
    }
    for (stem, unit) in [
        ("comm.bytes", "B"),
        ("comm.colls", "count"),
        ("comm.comm_s", "s"),
        ("comm.wait_s", "s"),
        ("mem.hw_bytes", "B"),
    ] {
        for phase in PHASES {
            m.push((format!("{stem}.{phase}"), unit));
        }
    }
    for (n, u) in [
        ("mem.model_peak_bytes", "B"),
        ("mem.vmhwm_bytes", "B"),
        ("mem.model_over_rss", "ratio"),
        ("serve.queue_s_p50", "s"),
        ("serve.run_s_p50", "s"),
        ("serve.peak_admitted_bytes", "B"),
        ("serve.generator_late_s", "s"),
        ("trace.assemble_s", "s"),
        ("trace.overhead_s", "s"),
        ("quality.ng50_bp", "bp"),
        ("quality.contigs", "count"),
        ("quality.misassemblies", "count"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Everything one run measured.
#[derive(Default)]
pub struct RunOutput {
    pub tally: Tally,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<trace::Span>,
}

/// Where trace spans and full records go, inside the checkout.
const OUT_DIR: &str = "perfbench/out";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    let host = Host::detect();
    let (ranks, threads) = w.workers();
    let oversubscribed = ranks * threads > host.cores;
    println!(
        "host: cores={} rev={} | workload={} ranks×threads={}×{} oversubscribed={} seed={} \
         seconds={} trace={}",
        host.cores,
        host.rev,
        w.name,
        ranks,
        threads,
        oversubscribed,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    if oversubscribed {
        println!(
            "OVERSUBSCRIBED: {} workers on {} cores — wall times measure time-sharing; \
             CPU seconds and per-rank counts carry the evidence",
            ranks * threads,
            host.cores
        );
    }

    let mut out = match &w.kind {
        Kind::Assembly {
            shape,
            cross_check,
            completeness_floor,
        } => assembly::run(w, shape, cross_check.as_ref(), *completeness_floor, &args),
        Kind::Serve(spec) => serve_open::run(w, spec, &args),
    };

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    if args.trace {
        for (name, unit) in per_layer() {
            metrics.push((
                name.clone(),
                out.layers.get(&name).copied().unwrap_or(0.0),
                unit,
            ));
        }
    } else {
        for (name, unit) in END_TO_END {
            match out.end_to_end.get(name) {
                Some(&v) => metrics.push((name.to_string(), v, unit)),
                None => missing.push(name.to_string()),
            }
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            missing.push(name.clone());
        }
    }
    out.tally.check(
        missing.is_empty(),
        &format!("every metric measured (missing or non-finite: {missing:?})"),
    );

    let tag = format!("{}-seed{}-trace{}", w.name, args.seed, args.trace as u8);
    if args.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{tag}.json"));
        match trace::write_chrome_trace(&path, &out.spans) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => println!("spans: cannot write {}: {e}", path.display()),
        }
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");

    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"cores\": {}, \"rev\": \"{}\", \"ranks\": {ranks}, \"threads\": {threads}, \
         \"oversubscribed\": {oversubscribed}}}, \"result\": {json}}}\n",
        w.name, args.seed, args.seconds, args.trace, host.cores, host.rev
    );
    let record_path = PathBuf::from(OUT_DIR).join(format!("result-{tag}.json"));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&record_path, record))
    {
        println!("record: cannot write {}: {e}", record_path.display());
    }
    println!("{json}");
    ExitCode::SUCCESS
}
