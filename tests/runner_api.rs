//! Pins for the [`Runner`] entry point and the `PipelineConfig`
//! sub-config builders: the socket and in-process backends assemble the
//! same contigs through one builder, and configuring a knob through its
//! sub-config builder is the same as setting its fields directly.

use elba::prelude::*;

fn dataset(seed: u64) -> (Vec<Seq>, PipelineConfig) {
    let spec = DatasetSpec::celegans_like(0.08, seed);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let cfg = PipelineConfig::for_dataset(&spec);
    (reads, cfg)
}

fn assemble_closure(
    reads: Vec<Seq>,
    cfg: PipelineConfig,
) -> impl Fn(Comm) -> Vec<Contig> + Send + Sync + 'static {
    move |comm| {
        let grid = ProcGrid::new(comm);
        let (contigs, _) = assemble_gathered(&grid, &reads, &cfg);
        contigs
    }
}

fn contig_strings(contigs: &[Contig]) -> Vec<String> {
    contigs.iter().map(|c| c.seq.to_string()).collect()
}

#[test]
fn socket_and_in_process_runners_assemble_identical_contigs() {
    let (reads, cfg) = dataset(99);

    let socket = Runner::new(Backend::Socket)
        .ranks(4)
        .run(assemble_closure(reads.clone(), cfg.clone()));
    let inproc = Runner::new(Backend::InProcess)
        .ranks(4)
        .run(assemble_closure(reads, cfg));
    let contigs = contig_strings(&socket[0]);
    assert!(!contigs.is_empty(), "probe produced no contigs");
    // The wire byte totals legitimately differ between planes outside
    // the named phases; tests/transport_equivalence.rs pins those.
    assert_eq!(
        contigs,
        contig_strings(&inproc[0]),
        "socket vs in-process contigs"
    );
}

#[test]
fn sub_config_builders_equal_direct_field_writes() {
    let base = PipelineConfig::default();

    let via_builder = base
        .clone()
        .kmer_exchange(KmerExchangeConfig {
            exchange: KmerExchange::Streaming,
            batch_kmers: 4096,
        })
        .seed_chaining(ChainingConfig {
            chaining: SeedChaining::Chain,
            chain_band: 64,
        });
    let mut via_fields = base;
    via_fields.kmer.exchange = KmerExchange::Streaming;
    via_fields.kmer.batch_kmers = 4096;
    via_fields.overlap.chaining = SeedChaining::Chain;
    via_fields.overlap.chain_band = 64;

    assert_eq!(
        format!("{via_builder:?}"),
        format!("{via_fields:?}"),
        "sub-config builders must write exactly their fields"
    );

    // Defaults of the sub-configs match the pipeline's own defaults, so
    // `..Default::default()` never silently changes a knob.
    let defaults = PipelineConfig::default();
    assert_eq!(
        KmerExchangeConfig::default().exchange,
        defaults.kmer.exchange
    );
    assert_eq!(
        ChainingConfig::default().chain_band,
        defaults.overlap.chain_band
    );
}

/// Knob transparency, pinned through both configuration paths: the
/// streaming exchange must leave the contigs byte-identical to the
/// defaults, whether configured through the sub-config builder or by
/// writing the config fields directly.
#[test]
fn knob_transparency_holds_through_both_builder_paths() {
    let spec = DatasetSpec::celegans_like(0.08, 555);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let base = PipelineConfig::for_dataset(&spec);

    let run = |cfg: PipelineConfig| {
        let reads = reads.clone();
        let out = Runner::new(Backend::InProcess)
            .ranks(4)
            .run(assemble_closure(reads, cfg));
        contig_strings(&out[0])
    };

    let default_contigs = run(base.clone());
    assert!(!default_contigs.is_empty(), "probe produced no contigs");
    let mut field_cfg = base.clone();
    field_cfg.kmer.exchange = KmerExchange::Streaming;
    field_cfg.kmer.batch_kmers = 4096;
    let field_contigs = run(field_cfg);
    let subcfg_contigs = run(base.kmer_exchange(KmerExchangeConfig {
        exchange: KmerExchange::Streaming,
        batch_kmers: 4096,
    }));

    assert_eq!(
        default_contigs, field_contigs,
        "direct field path broke transparency"
    );
    assert_eq!(
        default_contigs, subcfg_contigs,
        "sub-config path broke transparency"
    );
}
