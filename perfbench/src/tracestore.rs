//! `trace-store`: the store and shard layers, timed from outside around
//! `read_index_file`, a scratch index build, `update_store`,
//! `write_index_file`, `ShardedIndex::from_persisted` and
//! `ShardedIndex::apply_delta`, over the workload's own base store and
//! delta sequence.

use std::fs;
use std::time::Instant;

use segram_core::{SegramConfig, ShardedIndex};
use segram_graph::{build_graph, VariantSet};
use segram_index::{
    frequency_threshold, read_index_file, update_store, write_index_file, GraphIndex,
};
use segram_io::{read_fasta, read_vcf, Ambiguity, VcfOptions};

use crate::args::Args;
use crate::json::Obj;
use crate::span::quantile;

fn read_variants(path: &str) -> Result<VariantSet, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = read_vcf(&text, VcfOptions::default()).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc.per_chrom.values().next().cloned().unwrap_or_default())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `trace-store --dir D --base B.sgi --epochs E --shards S`.
pub fn trace_store(args: &Args) -> Result<String, String> {
    let dir = args.req("dir")?;
    let base = args.req("base")?;
    let epochs: usize = args.num("epochs")?;
    let shards: usize = args.num("shards")?;

    let mut read_ms = Vec::new();
    let mut loaded = None;
    for _ in 0..3 {
        let t = Instant::now();
        let store = read_index_file(base).map_err(|e| format!("{base}: {e}"))?;
        read_ms.push(ms_since(t));
        loaded = Some(store);
    }
    let mut current = loaded.expect("three reads happened");
    let mut config = SegramConfig::short_reads();
    config.scheme = *current.index.scheme();
    config.bucket_bits = current.index.bucket_bits();
    config.discard_frac = current.discard_frac;

    let fasta_path = format!("{dir}/ref.fa");
    let fasta = fs::read_to_string(&fasta_path).map_err(|e| format!("{fasta_path}: {e}"))?;
    let reference = read_fasta(&fasta, Ambiguity::Reject)
        .map_err(|e| format!("{fasta_path}: {e}"))?
        .remove(0)
        .seq;
    let base_variants = read_variants(&format!("{dir}/base.vcf"))?;
    let t = Instant::now();
    let built = build_graph(&reference, base_variants.into_sorted()).map_err(|e| e.to_string())?;
    let index = GraphIndex::build(&built.graph, config.scheme, config.bucket_bits);
    std::hint::black_box(frequency_threshold(&index, config.discard_frac));
    let build_ms = ms_since(t);

    let t = Instant::now();
    let mut sharded = ShardedIndex::from_persisted(current.clone(), config, shards);
    let mut rebuild_ms = vec![ms_since(t)];
    let (mut update_ms, mut write_ms, mut swap_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reextract, mut dirty, mut file_mb) = (0.0, 0.0, 0.0);
    let out = format!("{dir}/trace_store.sgi");
    for epoch in 0..epochs {
        let path = format!("{dir}/delta_{epoch:03}.vcf");
        let delta = read_variants(&path)?;
        let t = Instant::now();
        let outcome = update_store(&current, &delta, &path).map_err(|e| format!("{path}: {e}"))?;
        update_ms.push(ms_since(t));
        reextract +=
            outcome.stats.extracted_chars as f64 / outcome.persisted.graph.total_chars() as f64;
        let t = Instant::now();
        let bytes =
            write_index_file(&outcome.persisted, &out).map_err(|e| format!("{out}: {e}"))?;
        write_ms.push(ms_since(t));
        file_mb = bytes as f64 / 1e6;
        let t = Instant::now();
        let (next, report) = sharded
            .apply_delta(&outcome.persisted)
            .map_err(|e| format!("apply_delta at epoch {epoch}: {e}"))?;
        swap_ms.push(ms_since(t));
        dirty += report.dirty as f64 / sharded.shards().len() as f64;
        let t = Instant::now();
        std::hint::black_box(ShardedIndex::from_persisted(
            outcome.persisted.clone(),
            config,
            shards,
        ));
        rebuild_ms.push(ms_since(t));
        sharded = next;
        current = outcome.persisted;
    }
    let _ = fs::remove_file(&out);
    let n = epochs.max(1) as f64;
    let mut o = Obj::new();
    o.num("store.build_ms", build_ms);
    o.num("store.update_ms", quantile(&mut update_ms, 0.5));
    o.num("store.write_ms", quantile(&mut write_ms, 0.5));
    o.num("store.read_ms", quantile(&mut read_ms, 0.5));
    o.num("store.reextract_frac", reextract / n);
    o.num("store.file_mb", file_mb);
    o.num("shard.delta_swap_ms", quantile(&mut swap_ms, 0.5));
    o.num("shard.rebuild_ms", quantile(&mut rebuild_ms, 0.5));
    o.num("shard.dirty_frac", dirty / n);
    Ok(o.render())
}
