//! Ground-truth checks: how many reads of a SAM or GAF document map
//! within a tolerance of the simulator's true origin, and store identity.

use std::fs;

use segram_graph::GenomeGraph;
use segram_index::read_index_file;
use segram_io::{looks_like_gzip, read_fastq, read_gaf, Ambiguity, BgzfBlocks, FastqRecord};

use crate::args::Args;
use crate::json::Obj;

/// Reads a FASTQ file, plain or BGZF-compressed.
pub fn read_fastq_any(path: &str) -> Result<Vec<FastqRecord>, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let plain = if looks_like_gzip(&bytes) {
        let mut plain = Vec::new();
        for block in BgzfBlocks::new(&bytes[..]) {
            let block = block.map_err(|e| format!("{path}: {e}"))?;
            plain.extend(block.inflate().map_err(|e| format!("{path}: {e}"))?);
        }
        plain
    } else {
        bytes
    };
    let text = String::from_utf8(plain).map_err(|e| format!("{path}: {e}"))?;
    read_fastq(&text, Ambiguity::Reject).map_err(|e| format!("{path}: {e}"))
}

fn truth_of(record: &FastqRecord) -> Option<u64> {
    record
        .description
        .split_whitespace()
        .find_map(|t| t.strip_prefix("truth:linear="))
        .and_then(|v| v.parse().ok())
}

/// Linear start of each mapped read in a SAM or GAF document.
fn starts(doc: &str, graph: &GenomeGraph) -> Result<Vec<(String, u64)>, String> {
    if doc.starts_with('@') || doc.is_empty() {
        let mut out = Vec::new();
        for line in doc.lines().filter(|l| !l.starts_with('@')) {
            let cols: Vec<&str> = line.split('\t').collect();
            if cols.len() < 4 {
                return Err(format!("short SAM line {line:?}"));
            }
            let flag: u32 = cols[1]
                .parse()
                .map_err(|_| format!("bad SAM flag in {line:?}"))?;
            if flag & 4 == 0 {
                let pos: u64 = cols[3]
                    .parse()
                    .map_err(|_| format!("bad SAM POS in {line:?}"))?;
                out.push((cols[0].to_owned(), pos.saturating_sub(1)));
            }
        }
        Ok(out)
    } else {
        let records = read_gaf(doc).map_err(|e| e.to_string())?;
        records
            .iter()
            .map(|r| {
                let first = *r.path.first().ok_or("GAF record with an empty path")?;
                Ok((r.qname.clone(), graph.char_start(first) + r.pstart))
            })
            .collect()
    }
}

/// `truth (--graph G | --index I) --reads R.fq --doc D --tolerance T`.
pub fn truth(args: &Args) -> Result<String, String> {
    let graph = crate::gen::load_graph(args)?;
    let reads = read_fastq_any(args.req("reads")?)?;
    let doc_path = args.req("doc")?;
    let doc = fs::read_to_string(doc_path).map_err(|e| format!("{doc_path}: {e}"))?;
    let tolerance: u64 = args.num("tolerance")?;
    let mapped = starts(&doc, &graph)?;
    let truth: std::collections::HashMap<&str, u64> = reads
        .iter()
        .filter_map(|r| truth_of(r).map(|t| (r.id.as_str(), t)))
        .collect();
    let correct = mapped
        .iter()
        .filter(|(name, start)| {
            truth
                .get(name.as_str())
                .is_some_and(|t| t.abs_diff(*start) <= tolerance)
        })
        .count();
    let mut o = Obj::new();
    o.num("reads", reads.len() as f64);
    o.num("mapped", mapped.len() as f64);
    o.num("correct", correct as f64);
    Ok(o.render())
}

/// `identity --index I`: the store's content identity and epoch.
pub fn identity(args: &Args) -> Result<String, String> {
    let path = args.req("index")?;
    let loaded = read_index_file(path).map_err(|e| format!("{path}: {e}"))?;
    let mut o = Obj::new();
    o.str("identity", &format!("{:#018x}", loaded.identity()));
    o.num(
        "epoch",
        loaded.changelog.as_ref().map_or(0, |c| c.epoch) as f64,
    );
    Ok(o.render())
}
