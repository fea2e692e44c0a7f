//! The assembly workloads: one simulated dataset assembled back to back
//! for the measurement window, untraced (and, with `--trace 1`,
//! alternating with traced iterations), then checked against itself,
//! the cross-check shape, and the simulator's genome.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use elba_comm::{ProcGrid, Runner};
use elba_quality::{evaluate, QualityConfig};
use elba_seq::fasta::{read_fasta, write_fasta, FastaRecord};
use elba_seq::{DatasetSpec, Seq};

use crate::harness::{self, contig_bytes, run_iteration, wire_signature, Iteration, Shape};
use crate::util::{self, median, percentile, tail_quantile};
use crate::{Args, RunOutput, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// The benchmark's set-up, `SETUP_REPS` times: simulate the dataset for
/// `seed`, render its reads as FASTA, parse them back through
/// `elba-seq`, and run `bring_up` (a mesh or a serve pool, up and down).
/// Returns the dataset, its genome and reads, and the median seconds.
///
/// The simulation is timed with the rest: the parse and a bring-up alone
/// take about a millisecond, most of it thread wake-ups, and on a shared
/// 2-core host their median moved up to 3× from one run to the next.
pub fn setup(
    shape: &Shape,
    seed: u64,
    mut bring_up: impl FnMut(),
) -> (DatasetSpec, Seq, Vec<Seq>, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let spec = shape.dataset(seed);
        let (genome, reads) = spec.generate();
        let records: Vec<FastaRecord> = reads
            .into_iter()
            .enumerate()
            .map(|(i, r)| FastaRecord {
                id: format!("read{i}"),
                seq: r.seq,
            })
            .collect();
        let mut fasta = Vec::new();
        write_fasta(&mut fasta, &records).expect("in-memory FASTA write");
        let reads: Vec<Seq> = read_fasta(std::io::Cursor::new(fasta))
            .expect("in-memory FASTA parses")
            .into_iter()
            .map(|r| r.seq)
            .collect();
        bring_up();
        times.push(started.elapsed().as_secs_f64());
        last = Some((spec, genome, reads));
    }
    let (spec, genome, reads) = last.expect("SETUP_REPS > 0");
    (spec, genome, reads, median(&times))
}

/// Bring up and tear down `shape`'s rank mesh.
pub fn mesh_bring_up(shape: &Shape) {
    Runner::new(shape.backend).ranks(shape.ranks).run(|comm| {
        let grid = ProcGrid::new(comm);
        grid.world().barrier();
    });
}

pub fn run(
    w: &Workload,
    shape: &Shape,
    cross_check: Option<&Shape>,
    completeness_floor: Option<f64>,
    args: &Args,
) -> RunOutput {
    let mut out = RunOutput::default();
    println!("shape: {}", shape.label());
    let (spec, genome, reads, setup_s) = setup(shape, args.seed, || mesh_bring_up(shape));
    let total_bases: usize = reads.iter().map(Seq::len).sum();
    let reads = Arc::new(reads);
    let cfg = Arc::new(shape.config(&spec));

    // Measurement window: untraced iterations, alternating with traced
    // ones under --trace 1. Stop before an iteration would overrun.
    let origin = Instant::now();
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut failures = 0usize;
    let mut reference: Option<Vec<u8>> = None;
    loop {
        let traced_turn = args.trace && traced.len() < untraced.len();
        let iteration = untraced.len() + traced.len() + failures;
        util::reset_peak_rss();
        let started = Instant::now();
        let run = run_iteration(
            shape,
            &reads,
            &cfg,
            traced_turn.then_some((origin, iteration)),
        );
        let latency = started.elapsed().as_secs_f64();
        match run {
            Ok(it) => {
                out.tally.attempted += 1;
                let bytes = contig_bytes(&it.contigs);
                match &reference {
                    None => reference = Some(bytes),
                    Some(first) => {
                        let what = if traced_turn {
                            "traced contigs byte-identical to the untraced ones"
                        } else {
                            "contigs byte-identical across iterations"
                        };
                        out.tally.check(*first == bytes, what);
                    }
                }
                if traced_turn {
                    traced.push(it);
                } else {
                    latencies.push(latency);
                    peaks.push(util::vm_hwm_bytes() as f64);
                    untraced.push(it);
                }
            }
            Err(e) => {
                failures += 1;
                out.tally
                    .check(false, &format!("assembly iteration failed: {e}"));
            }
        }
        let elapsed = origin.elapsed().as_secs_f64();
        let enough = !untraced.is_empty() && (!args.trace || !traced.is_empty());
        if (enough && elapsed + latency > args.seconds) || (failures > 0 && elapsed > args.seconds)
        {
            break;
        }
    }
    let loop_wall = origin.elapsed().as_secs_f64();
    let Some(first) = untraced.first() else {
        return out;
    };

    print_rank_rows(first);
    if let Some(t) = traced.first() {
        out.tally.check(
            wire_signature(&t.profile) == wire_signature(&first.profile),
            "per-phase profiled wire bytes equal between traced and untraced runs",
        );
    }

    // Ground truth.
    let seqs: Vec<Seq> = first.contigs.iter().map(|c| c.seq.clone()).collect();
    let report = evaluate(&genome, &seqs, &QualityConfig::default());
    println!(
        "quality: completeness {:.2}% · {} contig(s) · NG50 {} bp · {} misassembled",
        report.completeness, report.n_contigs, report.ng50, report.misassembled_contigs
    );
    out.tally.check(
        report.n_contigs >= 1,
        "assembly produced at least one contig",
    );
    if let Some(floor) = completeness_floor {
        out.tally.check(
            report.completeness >= floor && report.misassembled_contigs == 0,
            &format!(
                "completeness {:.2}% ≥ {floor}% with 0 misassemblies (got {})",
                report.completeness, report.misassembled_contigs
            ),
        );
    }

    // Cross-shape identity (knob transparency across ranks × threads).
    if let Some(other) = cross_check {
        let other_cfg = Arc::new(other.config(&spec));
        let ok = match run_iteration(other, &reads, &other_cfg, None) {
            Ok(it) => contig_bytes(&it.contigs) == contig_bytes(&first.contigs),
            Err(e) => {
                println!("cross-check assembly failed: {e}");
                false
            }
        };
        out.tally.check(
            ok,
            &format!(
                "contigs byte-identical to the {}×{} run",
                other.ranks, other.threads
            ),
        );
    }

    // Peak RSS of the first untraced assembly (VmHWM reset before it).
    // Later iterations inherit heap fragmentation from earlier ones and
    // creep upward, so only the first measures one assembly cleanly.
    let vmhwm = peaks[0];
    let modeled = harness::modeled_peak_bytes(&first.profile);
    println!(
        "memory: tracker mem-hw (Σ ranks) {:.1} MiB vs process VmHWM {:.1} MiB per assembly",
        modeled as f64 / MIB,
        vmhwm / MIB
    );

    let walls: Vec<f64> = untraced.iter().map(|it| it.wall).collect();
    let cpus: Vec<f64> = untraced.iter().map(|it| it.cpu).collect();
    let n = latencies.len();
    let tail_q = tail_quantile(n);
    println!(
        "iterations: {} untraced, {} traced, {} failed in {:.2} s; latency tail = p{:.0} of {n}; \
         assemble walls {:.3?} s; peak RSS {:.0?} MiB",
        untraced.len(),
        traced.len(),
        failures,
        loop_wall,
        tail_q * 100.0,
        walls,
        peaks.iter().map(|p| p / MIB).collect::<Vec<_>>()
    );
    let e = &mut out.end_to_end;
    e.insert("assemble_s", median(&walls));
    e.insert("assemble_cpu_s", median(&cpus));
    e.insert("setup_s", setup_s);
    e.insert(
        "mem_hw_mib",
        harness::mem_hw_bytes(&first.profile) as f64 / MIB,
    );
    e.insert("completeness_pct", report.completeness);
    e.insert(
        "serve_jobs_per_min",
        60.0 * n as f64 / latencies.iter().sum::<f64>(),
    );
    e.insert("serve_latency_p50_s", median(&latencies));
    e.insert("serve_latency_tail_s", percentile(&latencies, tail_q));
    e.insert(
        "serve_slo_met_frac",
        latencies.iter().filter(|&&l| l <= w.slo_s).count() as f64 / (n + failures) as f64,
    );

    if args.trace {
        let per_iter: Vec<BTreeMap<String, f64>> = traced
            .iter()
            .map(|it| {
                let layers = it.layers.as_ref().expect("traced iteration has layers");
                harness::layer_metrics(layers, &it.profile, &cfg, total_bases)
            })
            .collect();
        out.layers = median_of_maps(&per_iter);
        let traced_wall = median(&traced.iter().map(|it| it.wall).collect::<Vec<_>>());
        let l = &mut out.layers;
        l.insert("trace.assemble_s".into(), traced_wall);
        l.insert("trace.overhead_s".into(), traced_wall - median(&walls));
        l.insert("mem.model_peak_bytes".into(), modeled as f64);
        l.insert("mem.vmhwm_bytes".into(), vmhwm);
        l.insert("mem.model_over_rss".into(), modeled as f64 / vmhwm);
        l.insert("quality.ng50_bp".into(), report.ng50 as f64);
        l.insert("quality.contigs".into(), report.n_contigs as f64);
        l.insert(
            "quality.misassemblies".into(),
            report.misassembled_contigs as f64,
        );
        print_layer_summary(&out.layers, traced_wall - median(&walls));
        for it in &mut traced {
            for l in it.layers.iter_mut().flatten() {
                out.spans.append(&mut l.spans);
            }
        }
    }
    out
}

const MIB: f64 = (1u64 << 20) as f64;

/// Per-key median across iterations.
fn median_of_maps(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = maps.first() {
        for key in first.keys() {
            let values: Vec<f64> = maps.iter().filter_map(|m| m.get(key).copied()).collect();
            out.insert(key.clone(), median(&values));
        }
    }
    out
}

/// Per-rank Alignment rows from the profile: wall, blocked comm,
/// request waits, and busy = wall − comm − wait, with max/mean.
fn print_rank_rows(it: &Iteration) {
    let mut busy = Vec::new();
    println!("per-rank Alignment (profile): rank  wall-s  comm-s  wait-s  busy-s");
    for (k, rank) in it.profile.rank_profiles().iter().enumerate() {
        if let Some(p) = rank.phase("Alignment") {
            let b = (p.wall_secs - p.comm_secs - p.wait_secs).max(0.0);
            busy.push(b);
            println!(
                "  r{k}  {:.4}  {:.4}  {:.4}  {:.4}",
                p.wall_secs, p.comm_secs, p.wait_secs, b
            );
        }
    }
    let max = busy.iter().copied().fold(0.0, f64::max);
    println!(
        "  busy max/mean = {:.3}",
        max / crate::util::mean(&busy).max(f64::MIN_POSITIVE)
    );
}

/// The traced figures the satellite checks read: per-rank rows, the
/// α–β–γ prediction beside the measured span, and tracing overhead.
fn print_layer_summary(l: &BTreeMap<String, f64>, overhead: f64) {
    let get = |k: &str| l.get(k).copied().unwrap_or(0.0);
    println!("per-rank Alignment (traced): rank  busy-s  candidate-pairs");
    for k in 0..crate::RANK_ROWS {
        let pairs = get(&format!("align.pairs.r{k}"));
        let busy = get(&format!("align.busy_s.r{k}"));
        if pairs > 0.0 || busy > 0.0 || k == 0 {
            println!("  r{k}  {busy:.4}  {pairs:.0}");
        }
    }
    println!(
        "  busy max/mean = {:.3} · mean idle behind the slowest rank {:.4} s",
        get("align.imbalance"),
        get("align.idle_s")
    );
    println!(
        "model: candidate_matrix predicted {:.4} s (α–β–γ, in-process constants) vs measured {:.4} s \
         → ratio {:.3}; SpGEMM {:.3e} flops (computed) at {:.1} Mflop/s",
        get("sparse.model_pred_s"),
        get("sparse.candidate_matrix_s"),
        get("sparse.model_err"),
        get("sparse.spgemm_flops"),
        get("sparse.spgemm_mflops_per_s")
    );
    println!("tracing overhead: traced − untraced assemble_s = {overhead:+.4} s");
}
