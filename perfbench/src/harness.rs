//! One assembly iteration, untraced (`elba_core::assemble_gathered`) or
//! traced (the same public calls in the same order and phases, each
//! timed from outside), and the per-layer metrics of a traced iteration.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use elba_comm::{
    Backend, CostConstants, ProcGrid, Profile, RunProfile, Runner, SchedulePlan, SpGemmEstimate,
};
use elba_core::{
    assemble_gathered, contig_generation, gather_contigs, ChainingConfig, Contig, ContigStats,
    PipelineConfig,
};
use elba_graph::{
    align_and_classify, candidate_matrix, overlap_graph, symmetrize, transitive_reduction_with,
    AlignStats, ReductionStats, SeedChaining, SharedSeeds,
};
use elba_seq::{build_a_triples, count_kmers, AEntry, DatasetSpec, ReadStore, Seq};
use elba_sparse::{Csr, DistMat, SpGemmAlgorithm};

use crate::trace::{span_secs, Span, Tracer};

/// The pipeline phases `assemble` opens, in order.
pub const PHASES: [&str; 5] = [
    "CountKmer",
    "DetectOverlap",
    "Alignment",
    "TrReduction",
    "ExtractContig",
];

/// Ranks reported individually in the per-rank Alignment rows.
pub const RANK_ROWS: usize = 4;

/// What one assembly runs on: a celegans-like dataset scale, the grid,
/// the threads per rank, the transport and the seed-chaining mode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub scale: f64,
    pub ranks: usize,
    pub threads: usize,
    pub backend: Backend,
    pub chaining: SeedChaining,
}

impl Shape {
    pub fn dataset(&self, seed: u64) -> DatasetSpec {
        DatasetSpec::celegans_like(self.scale, seed)
    }

    pub fn config(&self, spec: &DatasetSpec) -> PipelineConfig {
        PipelineConfig::for_dataset(spec)
            .with_threads(self.threads)
            .seed_chaining(ChainingConfig {
                chaining: self.chaining,
                ..ChainingConfig::default()
            })
    }

    pub fn label(&self) -> String {
        format!(
            "celegans-like {} · {} rank(s) × {} thread(s) · {:?} · {:?}",
            self.scale, self.ranks, self.threads, self.backend, self.chaining
        )
    }
}

/// What one traced iteration learned on one rank.
pub struct RankLayers {
    pub spans: Vec<Span>,
    pub rank: usize,
    pub myrow: usize,
    pub mycol: usize,
    /// This rank's block of `A`, kept for the SpGEMM flop count and the
    /// model inputs (computed after the run, outside every span).
    pub a_block: Arc<Csr<AEntry>>,
    pub c_local_nnz: usize,
    pub reliable_kmers: u64,
    pub candidate_nnz: u64,
    pub align: AlignStats,
    pub reduction: ReductionStats,
    pub contig: ContigStats,
}

pub struct Iteration {
    /// Rank 0's wall seconds from reads in memory to contigs gathered.
    pub wall: f64,
    /// Process CPU seconds over the whole run (every rank and worker).
    pub cpu: f64,
    pub contigs: Vec<Contig>,
    pub profile: RunProfile,
    /// Per-rank layer records; `Some` for traced iterations only.
    pub layers: Option<Vec<RankLayers>>,
}

/// Run one assembly on a fresh mesh. `trace` carries the span origin
/// and iteration number when the iteration is traced.
pub fn run_iteration(
    shape: &Shape,
    reads: &Arc<Vec<Seq>>,
    cfg: &Arc<PipelineConfig>,
    trace: Option<(Instant, usize)>,
) -> Result<Iteration, String> {
    assert!(
        !cfg.mem_budget.is_limited(),
        "the traced body mirrors the unbudgeted pipeline"
    );
    let (reads, cfg) = (Arc::clone(reads), Arc::clone(cfg));
    let cpu0 = crate::util::cpu_seconds();
    let run = Runner::new(shape.backend)
        .ranks(shape.ranks)
        .try_run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            grid.world().barrier();
            let started = Instant::now();
            let (contigs, layers) = match trace {
                None => (assemble_gathered(&grid, &reads, &cfg).0, None),
                Some((origin, iteration)) => {
                    let tracer = Tracer::new(origin, grid.world().rank(), iteration);
                    let (contigs, layers) = traced_assemble(&grid, &reads, &cfg, &tracer);
                    (contigs, Some((layers, tracer.into_spans())))
                }
            };
            let wall = started.elapsed().as_secs_f64();
            let contigs = if grid.world().rank() == 0 {
                contigs
            } else {
                Vec::new()
            };
            (wall, contigs, layers)
        });
    let cpu = crate::util::cpu_seconds() - cpu0;
    let (outputs, profile) = run.map_err(|failure| failure.to_string())?;
    let mut wall = 0.0;
    let mut contigs = Vec::new();
    let mut layers = Vec::new();
    for (rank, (rank_wall, rank_contigs, rank_layers)) in outputs.into_iter().enumerate() {
        if rank == 0 {
            wall = rank_wall;
            contigs = rank_contigs;
        }
        if let Some((mut l, spans)) = rank_layers {
            l.spans = spans;
            layers.push(l);
        }
    }
    Ok(Iteration {
        wall,
        cpu,
        contigs,
        profile,
        layers: trace.map(|_| layers),
    })
}

/// `elba_core::assemble_gathered`, call for call: the same public
/// functions in the same order, under the same `Comm::phase` names and
/// memory charges, each wrapped in a span. Collective.
fn traced_assemble(
    grid: &ProcGrid,
    reads: &[Seq],
    cfg: &PipelineConfig,
    tr: &Tracer,
) -> (Vec<Contig>, RankLayers) {
    let world = grid.world();
    let n_reads = reads.len();
    let store = tr.span("ReadStore::from_replicated", || {
        ReadStore::from_replicated(grid, reads)
    });

    let table = tr.span("CountKmer", || {
        let _g = world.phase("CountKmer");
        tr.span("count_kmers", || count_kmers(grid, &store, &cfg.kmer))
    });

    let (a_block, c, c_charge) = tr.span("DetectOverlap", || {
        let _g = world.phase("DetectOverlap");
        let triples = tr.span("build_a_triples", || {
            build_a_triples(grid, &store, &table, &cfg.kmer)
        });
        let a = tr.span("DistMat::from_triples", || {
            DistMat::from_triples(
                grid,
                n_reads,
                table.n_global as usize,
                triples,
                |acc: &mut AEntry, v| {
                    if v.pos < acc.pos {
                        *acc = v;
                    }
                },
            )
        });
        let _a_charge = world.mem_charge_shared(a.local_arc(), a.deep_heap_bytes());
        let c = tr.span("candidate_matrix", || {
            candidate_matrix(grid, &a, &cfg.overlap)
        });
        let c_charge = world.mem_charge_shared(c.local_arc(), c.deep_heap_bytes());
        (Arc::clone(a.local_arc()), c, c_charge)
    });
    let candidate_nnz = c.nnz_global(grid);
    let c_local_nnz = c.local().nnz();

    let (r, r_charge, align) = tr.span("Alignment", || {
        let _g = world.phase("Alignment");
        let (triples, contained, stats) = tr.span("align_and_classify", || {
            align_and_classify(grid, &c, &store, &cfg.overlap)
        });
        let r = tr.span("overlap_graph", || {
            overlap_graph(grid, n_reads, triples, &contained)
        });
        let r_charge = world.mem_charge_shared(r.local_arc(), r.deep_heap_bytes());
        (r, r_charge, stats)
    });
    drop(c);
    drop(c_charge);

    let (s, s_charge, reduction) = tr.span("TrReduction", || {
        let _g = world.phase("TrReduction");
        drop(r_charge);
        let (s, stats) = tr.span("transitive_reduction_with", || {
            transitive_reduction_with(grid, r, cfg.tr_fuzz, cfg.tr_max_iters, &cfg.overlap.spgemm)
        });
        let s = tr.span("symmetrize", || symmetrize(grid, s));
        let s_charge = world.mem_charge_shared(s.local_arc(), s.deep_heap_bytes());
        (s, s_charge, stats)
    });
    let _string_graph_nnz = s.nnz_global(grid);

    let (local_contigs, contig) = tr.span("ExtractContig", || {
        let _g = world.phase("ExtractContig");
        tr.span("contig_generation", || {
            contig_generation(grid, &s, &store, &cfg.contig)
        })
    });
    drop(s_charge);
    drop(s);
    drop(store);

    let contigs = tr.span("gather_contigs", || gather_contigs(grid, &local_contigs));
    let layers = RankLayers {
        spans: Vec::new(),
        rank: world.rank(),
        myrow: grid.myrow(),
        mycol: grid.mycol(),
        a_block,
        c_local_nnz,
        reliable_kmers: table.n_global,
        candidate_nnz,
        align,
        reduction,
        contig,
    };
    (contigs, layers)
}

/// Contigs as bytes, for byte-identity checks.
pub fn contig_bytes(contigs: &[Contig]) -> Vec<u8> {
    let mut out = Vec::new();
    for c in contigs {
        out.extend_from_slice(c.seq.codes());
        out.push(if c.circular { b'o' } else { b'|' });
        for id in &c.read_ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.push(b'\n');
    }
    out
}

/// Profiled wire traffic per rank and named phase: (phase, bytes sent,
/// point-to-point messages, collective calls).
pub fn wire_signature(profile: &RunProfile) -> Vec<Vec<(String, u64, u64, u64)>> {
    profile
        .rank_profiles()
        .iter()
        .map(|rank| {
            let mut rows: Vec<_> = rank
                .phases()
                .filter(|(name, _)| *name != elba_comm::profile::UNPHASED)
                .map(|(name, p)| (name.to_string(), p.bytes_sent(), p.p2p_msgs, p.coll_calls()))
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

/// Sum of one rank's figures over `phase` and its `phase:*` subphases:
/// (bytes sent, collective calls, comm seconds, wait seconds, mem-hw).
fn phase_totals(rank: &Profile, phase: &str) -> (u64, u64, f64, f64, u64) {
    let sub = format!("{phase}:");
    let mut t = (0, 0, 0.0, 0.0, 0);
    for (name, p) in rank.phases() {
        if name == phase || name.starts_with(&sub) {
            t.0 += p.bytes_sent();
            t.1 += p.coll_calls();
            t.2 += p.comm_secs;
            t.3 += p.wait_secs;
            t.4 = t.4.max(rank.mem().high_water(name));
        }
    }
    t
}

/// Each rank's tracked high-water over all pipeline phases.
fn rank_mem_hw(profile: &RunProfile) -> impl Iterator<Item = u64> + '_ {
    profile.rank_profiles().iter().map(|rank| {
        PHASES
            .iter()
            .map(|phase| phase_totals(rank, phase).4)
            .max()
            .unwrap_or(0)
    })
}

/// The largest per-rank tracked high-water: the biggest figure in the
/// CLI's `mem-hw` column, the one a `--mem-budget` is checked against.
pub fn mem_hw_bytes(profile: &RunProfile) -> u64 {
    rank_mem_hw(profile).max().unwrap_or(0)
}

/// Modeled process peak: every rank's tracked high-water, summed (all
/// ranks share one process on both backends).
pub fn modeled_peak_bytes(profile: &RunProfile) -> u64 {
    rank_mem_hw(profile).sum()
}

/// Per-layer metrics of one traced iteration.
pub fn layer_metrics(
    layers: &[RankLayers],
    profile: &RunProfile,
    cfg: &PipelineConfig,
    total_bases: usize,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let max_span = |name: &str| {
        layers
            .iter()
            .map(|l| span_secs(&l.spans, name))
            .fold(0.0, f64::max)
    };
    let first = &layers[0];

    // elba-seq
    put("seq.store_s", max_span("ReadStore::from_replicated"));
    put("seq.count_kmers_s", max_span("count_kmers"));
    put("seq.build_a_triples_s", max_span("build_a_triples"));
    put(
        "seq.scan_mbases_per_s",
        total_bases as f64 / max_span("count_kmers") / 1e6,
    );
    put("seq.reliable_kmers", first.reliable_kmers as f64);

    // elba-sparse
    let cm_s = max_span("candidate_matrix");
    let (flops, predicted) = spgemm_model(layers, cfg);
    put("sparse.from_triples_s", max_span("DistMat::from_triples"));
    put("sparse.candidate_matrix_s", cm_s);
    put("sparse.spgemm_flops", flops);
    put("sparse.spgemm_mflops_per_s", flops / cm_s / 1e6);
    put("sparse.c_nnz", first.candidate_nnz as f64);
    put("sparse.model_pred_s", predicted);
    put("sparse.model_err", predicted / cm_s);

    // Alignment, per rank: busy = span − blocked comm − request waits.
    let mut busy = Vec::new();
    for l in layers {
        let rank = &profile.rank_profiles()[l.rank];
        let (_, _, comm, wait, _) = phase_totals(rank, "Alignment");
        busy.push((span_secs(&l.spans, "Alignment") - comm - wait).max(0.0));
    }
    for k in 0..RANK_ROWS {
        let rank = layers.iter().position(|l| l.rank == k);
        put(&format!("align.busy_s.r{k}"), rank.map_or(0.0, |i| busy[i]));
        put(
            &format!("align.pairs.r{k}"),
            rank.map_or(0.0, |i| layers[i].c_local_nnz as f64),
        );
    }
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    let mean_busy = crate::util::mean(&busy);
    put("align.imbalance", max_busy / mean_busy);
    put(
        "align.idle_s",
        crate::util::mean(&busy.iter().map(|b| max_busy - b).collect::<Vec<_>>()),
    );
    let a = first.align;
    put(
        "align.pairs_per_s",
        a.candidate_pairs as f64 / max_span("align_and_classify"),
    );
    put("align.chains_extended", a.chains_extended as f64);
    put("align.seeds_skipped", a.seeds_skipped as f64);
    put(
        "align.useful_frac",
        a.dovetails as f64 / a.candidate_pairs.max(1) as f64,
    );
    put("align.par_s", profile.max_par_secs("Alignment"));

    // elba-graph reduction and the contig stage
    put("tr.s", max_span("TrReduction"));
    put("tr.iterations", first.reduction.iterations as f64);
    put("tr.removed", first.reduction.removed as f64);
    put("contig.s", max_span("ExtractContig"));
    put("contig.gather_s", max_span("gather_contigs"));
    put("contig.components", first.contig.n_components as f64);
    put(
        "contig.branch_vertices",
        first.contig.branch_vertices as f64,
    );
    put("contig.partition_imbalance", first.contig.imbalance);

    // elba-comm and elba-mem, per phase
    for phase in PHASES {
        let totals: Vec<_> = profile
            .rank_profiles()
            .iter()
            .map(|rank| phase_totals(rank, phase))
            .collect();
        put(
            &format!("comm.bytes.{phase}"),
            totals.iter().map(|t| t.0).sum::<u64>() as f64,
        );
        put(
            &format!("comm.colls.{phase}"),
            totals.iter().map(|t| t.1).sum::<u64>() as f64,
        );
        put(
            &format!("comm.comm_s.{phase}"),
            totals.iter().map(|t| t.2).fold(0.0, f64::max),
        );
        put(
            &format!("comm.wait_s.{phase}"),
            totals.iter().map(|t| t.3).fold(0.0, f64::max),
        );
        put(
            &format!("mem.hw_bytes.{phase}"),
            totals.iter().map(|t| t.4).max().unwrap_or(0) as f64,
        );
    }
    m
}

fn layers_q(layers: &[RankLayers]) -> usize {
    (layers.len() as f64).sqrt().round() as usize
}

/// Σ_k nnz(A[:,k])² (the multiply-adds of `C = AAᵀ`, computed from A's
/// structure) and the α–β–γ prediction of the `candidate_matrix`
/// SpGEMM under [`CostConstants::in_process`]. The prediction's inputs
/// mirror the schedule's own estimate pass: per output block (i, j),
/// flops `Σ_s Σ_k cnt(A_is, k)·cnt(A_js, k)`, result entries
/// `Σ_c min(flops(c), rows)` and stage bytes `|A_is| + |A_jsᵀ|`, each
/// maxed over blocks.
fn spgemm_model(layers: &[RankLayers], cfg: &PipelineConfig) -> (f64, f64) {
    let q = layers_q(layers);
    let block = |i: usize, s: usize| {
        &layers
            .iter()
            .find(|l| l.myrow == i && l.mycol == s)
            .expect("every grid block traced")
            .a_block
    };
    let col_counts: Vec<Vec<Vec<u64>>> = (0..q)
        .map(|i| {
            (0..q)
                .map(|s| {
                    let a = block(i, s);
                    let mut counts = vec![0u64; a.ncols()];
                    for &k in a.indices() {
                        counts[k as usize] += 1;
                    }
                    counts
                })
                .collect()
        })
        .collect();
    let transposed_bytes = |a: &Csr<AEntry>| {
        (a.ncols() + 1) * std::mem::size_of::<usize>()
            + a.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<AEntry>())
    };
    let (mut global_flops, mut max_flops, mut max_entries, mut max_stage) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..q {
        for j in 0..q {
            let rows_i = block(i, 0).nrows() as u64;
            let mut col_flops = vec![0u64; block(j, 0).nrows()];
            let mut flops = 0u64;
            for (s, (ci, cj)) in col_counts[i].iter().zip(&col_counts[j]).enumerate() {
                flops += ci.iter().zip(cj).map(|(x, y)| x * y).sum::<u64>();
                let a_js = block(j, s);
                for (c, k, _) in a_js.iter() {
                    col_flops[c as usize] += ci[k as usize];
                }
                let stage = block(i, s).heap_bytes() + transposed_bytes(a_js);
                max_stage = f64::max(max_stage, stage as f64);
            }
            let entries: u64 = col_flops.iter().map(|&f| f.min(rows_i)).sum();
            global_flops += flops as f64;
            max_flops = f64::max(max_flops, flops as f64);
            max_entries = f64::max(max_entries, entries as f64);
        }
    }
    // Every non-layered schedule is priced as the pipelined one, which
    // is `Layered { c: 1 }` by the model's definition.
    let c = match cfg.overlap.spgemm.algorithm {
        SpGemmAlgorithm::Layered { c } => c,
        _ => 1,
    };
    let est = SpGemmEstimate {
        grid_q: q,
        stage_bytes: max_stage,
        // Read only for budgeted column batching; the benchmark's
        // assemblies are unbudgeted.
        struct_bytes: 0.0,
        flops: max_flops,
        result_entries: max_entries,
        entry_bytes: (std::mem::size_of::<u32>() + std::mem::size_of::<SharedSeeds>()) as f64,
        mem_budget: None,
    };
    let predicted = CostConstants::in_process().predict_phase(SchedulePlan::Layered { c }, &est);
    (global_flops, predicted)
}
