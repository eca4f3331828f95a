//! `trace-map`: the traced map run. It drives the same library entry
//! points `segram map` uses — `MapEngine::map_raw_stream` /
//! `map_block_stream` over a `MapPipeline` of the default stages — but
//! wraps the seeding and alignment stages and the `ReadMapper` in span
//! recorders, and supplies its own timed inflate, decode, render and
//! write closures. The output documents are written so the caller can
//! compare them byte for byte with the untraced `segram map` run.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use segram_align::{graph_dp_distance, AlignError, Alignment, StartMode};
use segram_core::{
    gaf_record_for, sam_record_for, Aligner, BitAlignStage, DecodedBlock, EngineOptions, MapEngine,
    MapPipeline, MapStats, Mapping, MinSeedStage, ReadMapper, ReadOutcome, Seeder, SegramConfig,
    SegramMapper, SpecPrefilter,
};
use segram_graph::{DnaSeq, GenomeGraph, LinearizedGraph};
use segram_hw::BitAlignHwConfig;
use segram_index::{read_index_file, MinSeedConfig, SeedingResult};
use segram_io::{
    looks_like_gzip, Ambiguity, BgzfBlock, BgzfBlocks, FastqFramer, FastqRecord, FastqSplice,
    GafWriter, RawFastqRecord, SamWriter,
};
use segram_sim::Strand;

use crate::args::Args;
use crate::json::Obj;
use crate::span::{ledger, quantile, Trace};

/// Work counters recorded at the stage boundaries.
#[derive(Default)]
struct Counters {
    minimizers: AtomicU64,
    seed_locations: AtomicU64,
    regions: AtomicU64,
    align_calls: AtomicU64,
    align_errs: AtomicU64,
    cells: AtomicU64,
    modeled_ns: AtomicU64,
    inflated_bytes: AtomicU64,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

struct TracedSeeder<'a> {
    stage: MinSeedStage<'a>,
    trace: &'a Trace,
    counters: &'a Counters,
}

impl Seeder for TracedSeeder<'_> {
    fn seed(&self, read: &DnaSeq) -> SeedingResult {
        let span = self.trace.open("seed", 0);
        let result = self.stage.seed(read);
        span.close();
        let c = self.counters;
        add(&c.minimizers, result.stats.minimizers as u64);
        add(&c.seed_locations, result.stats.seed_locations as u64);
        add(&c.regions, result.regions.len() as u64);
        result
    }
}

struct TracedAligner<'a> {
    stage: BitAlignStage,
    config: SegramConfig,
    model: BitAlignHwConfig,
    trace: &'a Trace,
    counters: &'a Counters,
}

/// Bitvector cells one alignment call computes: `text × (k+1) × ⌈m/64⌉`
/// for a single window. A windowed (long-read) call is counted window by
/// window: the free first window scans the whole region, each later
/// window its anchored reachable slice of `win + k + 1` characters.
fn cells(config: &SegramConfig, text_len: usize, m: usize) -> u64 {
    let words = |len: usize| len.div_ceil(64) as u64;
    if m <= config.window.window {
        let k = u64::from(config.threshold_for(m));
        return text_len as u64 * (k + 1) * words(m);
    }
    let w = config.window;
    let k = u64::from(w.window_k.max(w.overlap as u32));
    let mut total = text_len as u64 * (k + 1) * words(w.window.min(m));
    let mut q = w.stride();
    while q < m {
        let win = w.window.min(m - q);
        total += (win as u64 + k + 1) * (k + 1) * words(win);
        q += w.stride();
    }
    total
}

impl Aligner for TracedAligner<'_> {
    fn align(&self, region: &LinearizedGraph, read: &DnaSeq) -> Result<Alignment, AlignError> {
        let span = self.trace.open("align", 0);
        let result = self.stage.align(region, read);
        span.close();
        let c = self.counters;
        add(&c.align_calls, 1);
        add(&c.align_errs, u64::from(result.is_err()));
        add(&c.cells, cells(&self.config, region.len(), read.len()));
        add(&c.modeled_ns, self.model.alignment_ns(read.len()) as u64);
        result
    }
}

/// The `ReadMapper` the engine drives: one `map` span per read around a
/// pipeline of traced stages over the wrapped mapper's graph and index.
struct TracedMapper<'a> {
    inner: &'a SegramMapper,
    trace: &'a Trace,
    counters: &'a Counters,
}

impl TracedMapper<'_> {
    fn pipeline(&self) -> MapPipeline<'_, TracedSeeder<'_>, SpecPrefilter, TracedAligner<'_>> {
        let config = *self.inner.config();
        let graph = self.inner.graph();
        MapPipeline::new(
            graph,
            TracedSeeder {
                stage: MinSeedStage::new(
                    graph,
                    self.inner.index(),
                    MinSeedConfig {
                        error_rate: config.error_rate,
                        frequency_threshold: self.inner.freq_threshold(),
                    },
                ),
                trace: self.trace,
                counters: self.counters,
            },
            SpecPrefilter::new(config.prefilter),
            TracedAligner {
                stage: BitAlignStage::new(&config),
                config,
                model: BitAlignHwConfig::bitalign(),
                trace: self.trace,
                counters: self.counters,
            },
            config,
        )
    }
}

impl ReadMapper for TracedMapper<'_> {
    fn graph(&self) -> &GenomeGraph {
        self.inner.graph()
    }

    fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
        let span = self.trace.open("map", 0);
        let out = self.pipeline().map_read(read);
        span.close();
        out
    }

    fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
        let span = self.trace.open("map", 0);
        let out = self.pipeline().map_read_both(read);
        span.close();
        out
    }
}

/// Loads the mapper the way `segram map` does: `--graph` builds the index,
/// `--index` loads a `.sgi` store and takes its scheme, buckets and
/// discard fraction. Returns the mapper and the store-read time.
pub fn load_mapper(
    args: &Args,
    mut config: SegramConfig,
) -> Result<(SegramMapper, Duration), String> {
    if let Some(path) = args.get("index") {
        let started = Instant::now();
        let loaded = read_index_file(path).map_err(|e| format!("{path}: {e}"))?;
        let read = started.elapsed();
        config.scheme = *loaded.index.scheme();
        config.bucket_bits = loaded.index.bucket_bits();
        config.discard_frac = loaded.discard_frac;
        let mapper = SegramMapper::from_parts(
            Arc::new(loaded.graph),
            loaded.index,
            config,
            loaded.freq_threshold,
        );
        Ok((mapper, read))
    } else {
        let graph = crate::gen::load_graph(args)?;
        Ok((SegramMapper::new(graph, config), Duration::ZERO))
    }
}

pub fn preset(name: &str) -> Result<SegramConfig, String> {
    match name {
        "short" => Ok(SegramConfig::short_reads()),
        "long5" => Ok(SegramConfig::long_reads(0.05)),
        other => Err(format!("unknown preset {other:?}")),
    }
}

enum Doc {
    Sam(SamWriter<BufWriter<File>>),
    Gaf(GafWriter<BufWriter<File>>),
}

/// One traced engine pass over one FASTQ file (plain or BGZF).
fn run_file(
    mapper: &TracedMapper<'_>,
    engine_options: EngineOptions,
    input: &str,
    output: &str,
    sam: bool,
    read_ids: &AtomicU64,
) -> Result<(segram_core::EngineReport, Duration), String> {
    let trace = mapper.trace;
    let mut bytes = Vec::new();
    File::open(input)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("{input}: {e}"))?;
    let out = File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut doc = if sam {
        Doc::Sam(
            SamWriter::new(BufWriter::new(out), "graph", mapper.graph().total_chars())
                .map_err(|e| e.to_string())?,
        )
    } else {
        Doc::Gaf(GafWriter::new(BufWriter::new(out)))
    };
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let fail = |message: String| {
        let mut slot = failure.lock().expect("failure lock poisoned");
        slot.get_or_insert(message);
    };
    let graph = mapper.graph();
    let sink = |record: FastqRecord, outcome: ReadOutcome| {
        let id = read_ids.fetch_add(1, Ordering::Relaxed) as u32 + 1;
        let span = trace.open("render", id);
        let result = match &mut doc {
            Doc::Sam(w) => {
                let line = sam_record_for(&record.id, &record.seq, &outcome).to_sam_line();
                span.close();
                let span = trace.open("write", id);
                let r = w.write_line(&line).map_err(|e| e.to_string());
                span.close();
                r
            }
            Doc::Gaf(w) => match gaf_record_for(&record.id, &record.seq, graph, &outcome) {
                Err(e) => {
                    span.close();
                    Err(e.to_string())
                }
                Ok(rec) => {
                    span.close();
                    let span = trace.open("write", id);
                    let r = match rec {
                        Some(rec) => w.write_record(&rec).map_err(|e| e.to_string()),
                        None => Ok(()),
                    };
                    span.close();
                    r
                }
            },
        };
        if let Err(e) = result {
            fail(e);
        }
    };
    let decode = |raw: RawFastqRecord| -> Option<FastqRecord> {
        match raw.decode(Ambiguity::Reject) {
            Ok(record) => Some(record),
            Err(e) => {
                fail(e.to_string());
                None
            }
        }
    };
    let engine = MapEngine::new(mapper, engine_options);
    let started = Instant::now();
    let report = if looks_like_gzip(&bytes) {
        let splice = FastqSplice::new();
        let decode_block = |block: BgzfBlock| -> Option<DecodedBlock<FastqRecord>> {
            let id = block.index() as u32 + 1;
            let span = trace.open("inflate", id);
            let t = Instant::now();
            let plain = block.inflate();
            let inflate = t.elapsed();
            span.close();
            let plain = match plain {
                Ok(plain) => plain,
                Err(e) => {
                    fail(e.to_string());
                    return None;
                }
            };
            add(&mapper.counters.inflated_bytes, plain.len() as u64);
            let span = trace.open("decode", id);
            let raws = splice.splice(block.index(), &plain, block.is_last(), || false)?;
            let items: Option<Vec<FastqRecord>> = raws.into_iter().map(decode).collect();
            span.close();
            Some(DecodedBlock {
                items: items?,
                inflate,
            })
        };
        let blocks = BgzfBlocks::new(&bytes[..]).map_while(|b| match b {
            Ok(block) => Some(block),
            Err(e) => {
                fail(e.to_string());
                None
            }
        });
        engine.map_block_stream(blocks, decode_block, |r: &FastqRecord| &r.seq, sink)
    } else {
        let raws = FastqFramer::new(&bytes[..]).map_while(|r| match r {
            Ok(raw) => Some(raw),
            Err(e) => {
                fail(e.to_string());
                None
            }
        });
        let decode_one = |raw: RawFastqRecord| {
            let span = trace.open("decode", raw.line() as u32);
            let out = decode(raw);
            span.close();
            out
        };
        engine.map_raw_stream(raws, decode_one, |r: &FastqRecord| &r.seq, sink)
    };
    let wall = started.elapsed();
    if let Some(message) = failure.into_inner().expect("failure lock poisoned") {
        return Err(format!("{input}: {message}"));
    }
    let finish = match doc {
        Doc::Sam(w) => w.finish(),
        Doc::Gaf(w) => w.finish(),
    };
    finish
        .and_then(|mut w| w.flush())
        .map_err(|e| format!("{output}: {e}"))?;
    Ok((report, wall))
}

/// Kernel reference columns: the first `pairs` (region, read) pairs the
/// pipeline aligns for the first reads of `input`, re-aligned by BitAlign
/// and by the exact graph DP. BitAlign's distance must equal the DP's on
/// every single-window pair it accepts (and the DP's must exceed `k`
/// where BitAlign rejects); a windowed long-read alignment can only be
/// worse than the optimum, never better.
fn kernel_sample(
    mapper: &SegramMapper,
    input: &str,
    pairs: usize,
) -> Result<(f64, usize, usize), String> {
    struct Capture<'a> {
        pairs: &'a Mutex<Vec<(LinearizedGraph, DnaSeq)>>,
        limit: usize,
    }
    impl Aligner for Capture<'_> {
        fn align(&self, region: &LinearizedGraph, read: &DnaSeq) -> Result<Alignment, AlignError> {
            let mut pairs = self.pairs.lock().expect("capture lock poisoned");
            if pairs.len() < self.limit {
                pairs.push((region.clone(), read.clone()));
            }
            Err(AlignError::EmptyPattern)
        }
    }
    let records = crate::truth::read_fastq_any(input)?;
    let config = *mapper.config();
    let captured = Mutex::new(Vec::new());
    let pipeline = MapPipeline::new(
        mapper.graph(),
        MinSeedStage::new(
            mapper.graph(),
            mapper.index(),
            MinSeedConfig {
                error_rate: config.error_rate,
                frequency_threshold: mapper.freq_threshold(),
            },
        ),
        SpecPrefilter::new(config.prefilter),
        Capture {
            pairs: &captured,
            limit: pairs,
        },
        config,
    );
    for record in &records {
        if captured.lock().expect("capture lock poisoned").len() >= pairs {
            break;
        }
        pipeline.map_read(&record.seq);
    }
    let captured = captured.into_inner().expect("capture lock poisoned");
    let stage = BitAlignStage::new(&config);
    let (mut bit_ns, mut dp_ns, mut mismatches) = (0u128, 0u128, 0usize);
    for (lin, read) in &captured {
        let t = Instant::now();
        let bit = std::hint::black_box(stage.align(lin, read));
        bit_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let dp = std::hint::black_box(graph_dp_distance(lin, read, StartMode::Free));
        dp_ns += t.elapsed().as_nanos();
        let Ok((exact, _)) = dp else {
            mismatches += 1;
            continue;
        };
        let single = read.len() <= config.window.window;
        let ok = match (&bit, single) {
            (Ok(a), true) => a.edit_distance == exact,
            (Err(_), true) => exact > config.threshold_for(read.len()),
            (Ok(a), false) => a.edit_distance >= exact,
            (Err(_), false) => true,
        };
        if !ok {
            mismatches += 1;
        }
    }
    let ratio = if dp_ns == 0 {
        0.0
    } else {
        bit_ns as f64 / dp_ns as f64
    };
    Ok((ratio, captured.len(), mismatches))
}

/// `trace-map (--graph G | --index I) --preset P --both-strands 0|1
/// --format sam|gaf --threads N --reads a.fq,b.fq.gz --out-dir D
/// --dp-pairs K`: prints one JSON object of per-layer metrics.
pub fn trace_map(args: &Args) -> Result<String, String> {
    let config = preset(args.req("preset")?)?;
    let both = args.req("both-strands")? == "1";
    let sam = args.req("format")? == "sam";
    let threads: usize = args.num("threads")?;
    let out_dir = args.req("out-dir")?;
    let inputs: Vec<&str> = args.req("reads")?.split(',').collect();
    let dp_pairs: usize = args.num("dp-pairs")?;

    let (mapper, store_read) = load_mapper(args, config)?;
    let trace = Trace::new();
    let counters = Counters::default();
    let traced = TracedMapper {
        inner: &mapper,
        trace: &trace,
        counters: &counters,
    };
    let read_ids = AtomicU64::new(0);
    let mut wall = Duration::ZERO;
    let mut reads = 0usize;
    let mut mapped = 0usize;
    let mut batches = 0usize;
    let mut program = MapStats::default();
    let (mut producer_wait, mut worker_wait, mut writer_wait) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut outputs = Vec::new();
    for input in &inputs {
        let name = std::path::Path::new(input)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("reads");
        let output = format!("{out_dir}/{name}.out");
        let options = EngineOptions::new().threads(threads).both_strands(both);
        let (report, took) = run_file(&traced, options, input, &output, sam, &read_ids)?;
        wall += took;
        reads += report.reads;
        mapped += report.mapped;
        batches += report.batches;
        program.merge(&report.stats);
        producer_wait += report.queue.producer_wait;
        worker_wait += report.queue.worker_wait;
        writer_wait += report.queue.writer_wait;
        outputs.push(output);
    }
    let (x_dp, dp_sampled, dp_mismatches) = kernel_sample(&mapper, inputs[0], dp_pairs)?;

    if let Some(path) = args.get("spans-out") {
        trace.write_tsv(path).map_err(|e| format!("{path}: {e}"))?;
    }
    let spans = trace.spans();
    let ms = |ns: u64| ns as f64 / 1e6;
    let map = ledger(&spans, "map");
    let seed = ledger(&spans, "seed");
    let align = ledger(&spans, "align");
    let inflate = ledger(&spans, "inflate");
    let decode = ledger(&spans, "decode");
    let render = ledger(&spans, "render");
    let write = ledger(&spans, "write");
    let mut read_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "map")
        .map(|s| ms(s.dur_ns()))
        .collect();
    let per_read = |n: u64| n as f64 / reads.max(1) as f64;
    let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let calls = get(&counters.align_calls);
    let cells = get(&counters.cells);
    let busy = map.total_ns.max(1);
    let self_sum = seed.self_ns + align.self_ns + map.self_ns;
    let program_busy = (program.seeding + program.filtering + program.alignment).as_nanos() as f64;

    let mut o = Obj::new();
    o.num("reads", reads as f64);
    o.num("mapped", mapped as f64);
    o.num("wall_s", wall.as_secs_f64());
    o.num("reads_per_s", reads as f64 / wall.as_secs_f64().max(1e-9));
    o.num("store.read_ms", store_read.as_secs_f64() * 1e3);
    o.num("io.inflate_ms", ms(inflate.total_ns));
    o.num(
        "io.inflate_mb_per_s",
        if inflate.total_ns == 0 {
            0.0
        } else {
            get(&counters.inflated_bytes) as f64 / 1e6 / (inflate.total_ns as f64 / 1e9)
        },
    );
    o.num("io.decode_ms", ms(decode.total_ns));
    o.num("io.render_ms", ms(render.total_ns));
    o.num("io.write_ms", ms(write.total_ns));
    o.num("index.seed_ms", ms(seed.self_ns));
    o.num(
        "index.minimizers_per_read",
        per_read(get(&counters.minimizers)),
    );
    o.num(
        "index.seed_locations_per_read",
        per_read(get(&counters.seed_locations)),
    );
    o.num("index.regions_per_read", per_read(get(&counters.regions)));
    o.num("align.ms", ms(align.self_ns));
    o.num("align.busy_frac", align.self_ns as f64 / busy as f64);
    o.num("align.calls_per_read", per_read(calls));
    o.num(
        "align.ns_per_call",
        align.total_ns as f64 / calls.max(1) as f64,
    );
    o.num("align.cells", cells as f64);
    o.num(
        "align.ns_per_cell",
        align.total_ns as f64 / cells.max(1) as f64,
    );
    o.num(
        "align.err_frac",
        get(&counters.align_errs) as f64 / calls.max(1) as f64,
    );
    o.num("align.useful_frac", mapped as f64 / calls.max(1) as f64);
    o.num(
        "align.x_modeled",
        align.total_ns as f64 / get(&counters.modeled_ns).max(1) as f64,
    );
    o.num("align.x_graph_dp", x_dp);
    o.num("align.dp_pairs", dp_sampled as f64);
    o.num("align.dp_mismatches", dp_mismatches as f64);
    o.num("pipeline.self_ms", ms(map.self_ns));
    o.num(
        "pipeline.retry_frac",
        (calls as f64 - get(&counters.regions) as f64).max(0.0) / calls.max(1) as f64,
    );
    o.num(
        "engine.worker_busy_frac",
        busy as f64 / (threads as f64 * wall.as_nanos().max(1) as f64),
    );
    o.num("engine.batches", batches as f64);
    o.num("engine.producer_wait_ms", producer_wait.as_secs_f64() * 1e3);
    o.num("engine.worker_wait_ms", worker_wait.as_secs_f64() * 1e3);
    o.num("engine.writer_wait_ms", writer_wait.as_secs_f64() * 1e3);
    o.num("engine.read_ms_p50", quantile(&mut read_ms, 0.5));
    o.num("engine.read_ms_p99", quantile(&mut read_ms, 0.99));
    o.num(
        "trace.self_sum_gap",
        (self_sum as f64 - busy as f64).abs() / busy as f64,
    );
    o.num(
        "trace.program_gap",
        (busy as f64 - program_busy).abs() / busy as f64,
    );
    o.num("trace.spans", spans.len() as f64);
    o.strs("outputs", &outputs);
    Ok(o.render())
}
