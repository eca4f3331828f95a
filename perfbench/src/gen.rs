//! Input generation. Every input is a pure function of its arguments:
//! the reference of a workload comes from a constant seed of the
//! benchmark (like a real reference genome); the sequencing of the read
//! panel and the placement of store deltas come from the run's `--seed`.

use std::fs;

use segram_graph::{build_graph, gfa, DnaSeq, GenomeGraph, VariantSet, BASES};
use segram_index::read_index_file;
use segram_io::{
    phred_from_error_rate, write_fasta, write_fastq, write_vcf, FastaRecord, FastqRecord,
};
use segram_sim::{
    generate_reference, path_fragment, simulate_variants, ErrorProfile, GenomeConfig, VariantConfig,
};
use segram_testkit::rng::{ChaCha8Rng, Rng, SeedableRng};

use crate::args::Args;

fn reference(len: usize, seed: u64) -> (DnaSeq, VariantSet) {
    let reference = generate_reference(&GenomeConfig::human_like(len, seed));
    let variants = simulate_variants(&reference, &VariantConfig::human_like(seed ^ 0xabcd));
    (reference, variants)
}

/// `gen-ref --len L --ref-seed S --out-prefix P`: writes `P.fa`, `P.vcf`
/// and `P.gfa` (the graph `segram construct` builds from the pair).
pub fn gen_ref(args: &Args) -> Result<String, String> {
    let len: usize = args.num("len")?;
    let seed: u64 = args.num("ref-seed")?;
    let prefix = args.req("out-prefix")?;
    let (reference, variants) = reference(len, seed);
    let vcf = write_vcf("chr1", &reference, &variants).map_err(|e| e.to_string())?;
    let built = build_graph(&reference, variants).map_err(|e| e.to_string())?;
    write(
        &format!("{prefix}.fa"),
        &write_fasta(&[FastaRecord::new("chr1", reference)], 70),
    )?;
    write(&format!("{prefix}.vcf"), &vcf)?;
    write(&format!("{prefix}.gfa"), &gfa::to_gfa(&built.graph))?;
    Ok(format!("{{\"nodes\": {}}}", built.graph.node_count()))
}

/// `gen-reads (--graph G.gfa | --index I.sgi) --count N --first J --len L
/// --error E --reverse-frac F --seed S --name-prefix X --out R.fq`:
/// reads `J..J+N` of the seed's read sequence. The FASTQ description
/// carries the true origin (`truth:linear=<0-based start> strand=<F|R>`).
///
/// Read `j` starts at `frac(j·φ) × (chars − L)` (a Weyl sequence): a fixed
/// panel of loci whose every prefix spreads over the reference almost
/// evenly. Read cost depends mostly on the locus (repeat copies multiply
/// candidate regions), so a fixed panel gives every seed the same mix of
/// repeat and unique loci, however many reads a run gets through. The
/// seed draws the path at each variant bubble, the strand and every
/// sequencing error (the simulator's error profiles): each seed
/// re-sequences the same panel.
pub fn gen_reads(args: &Args) -> Result<String, String> {
    let graph = load_graph(args)?;
    let count: usize = args.num("count")?;
    let first: u64 = args.num("first")?;
    let len: usize = args.num("len")?;
    let error: f64 = args.num("error")?;
    let reverse_frac: f64 = args.num("reverse-frac")?;
    let seed: u64 = args.num("seed")?;
    let prefix = args.req("name-prefix")?;
    let profile = if error >= 0.03 {
        ErrorProfile::pacbio_5()
    } else {
        ErrorProfile::illumina()
    };
    let span = graph
        .total_chars()
        .checked_sub(len as u64 + 64)
        .ok_or("reference shorter than one read")?;
    let golden = (5f64.sqrt() - 1.0) / 2.0;
    let phred = phred_from_error_rate(error.max(1e-4));
    let mut records = Vec::with_capacity(count);
    let mut j = first;
    while records.len() < count {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let start = ((j as f64 * golden).fract() * span as f64) as u64;
        j += 1;
        let pos = graph.graph_pos(start).map_err(|e| e.to_string())?;
        // A random-branch walk, with slack for deletions.
        let Some(path) = path_fragment(&graph, pos, len * 2 + 64, rng.gen()) else {
            continue;
        };
        let Some(mut seq) = corrupt(&path, len, &profile, &mut rng) else {
            continue;
        };
        let strand = if rng.gen_bool(reverse_frac) {
            seq = seq.reverse_complement();
            'R'
        } else {
            'F'
        };
        let mut record =
            FastqRecord::with_uniform_quality(format!("{prefix}{}", j - 1), seq, phred);
        record.description = format!("truth:linear={start} strand={strand}");
        records.push(record);
    }
    write(args.req("out")?, &write_fastq(&records))?;
    Ok(format!("{{\"reads\": {}}}", records.len()))
}

/// Applies `profile`'s substitutions, insertions and deletions while
/// copying `path`, stopping at `len` output bases (`None` if the path
/// runs out first).
fn corrupt(
    path: &DnaSeq,
    len: usize,
    profile: &ErrorProfile,
    rng: &mut ChaCha8Rng,
) -> Option<DnaSeq> {
    let mut out = DnaSeq::with_capacity(len);
    let mut i = 0;
    while out.len() < len {
        let base = path.get(i)?;
        let roll: f64 = rng.gen();
        if roll < profile.ins {
            out.push(BASES[rng.gen_range(0..4)]);
        } else if roll < profile.ins + profile.del {
            i += 1;
        } else if roll < profile.ins + profile.del + profile.sub {
            let alt = loop {
                let c = BASES[rng.gen_range(0..4)];
                if c != base {
                    break c;
                }
            };
            out.push(alt);
            i += 1;
        } else {
            out.push(base);
            i += 1;
        }
    }
    Some(out)
}

/// `gen-store --len L --ref-seed S --seed W --windows N --window-len B
/// --dir D`: a reference, a base variant set, and N deltas. Each delta is
/// the variant set of one contiguous coordinate window; the windows are
/// placed by `--seed` without overlap, and the base holds every variant
/// outside them. Writes `D/ref.fa`, `D/base.vcf`, `D/delta_<i>.vcf`.
pub fn gen_store(args: &Args) -> Result<String, String> {
    let len: usize = args.num("len")?;
    let ref_seed: u64 = args.num("ref-seed")?;
    let seed: u64 = args.num("seed")?;
    let windows: usize = args.num("windows")?;
    let window_len: u64 = args.num("window-len")?;
    let dir = args.req("dir")?;
    let (reference, variants) = reference(len, ref_seed);
    let variants = variants.into_sorted();

    // Non-overlapping windows with a 1 kb gap, placed by rejection sampling.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57_0e_e7);
    let mut placed: Vec<(u64, u64)> = Vec::new();
    let span = len as u64 - window_len;
    let mut tries = 0;
    while placed.len() < windows {
        tries += 1;
        if tries > 100_000 {
            return Err("cannot place the delta windows".into());
        }
        let start = rng.gen_range(0..span);
        let end = start + window_len;
        if placed
            .iter()
            .all(|&(s, e)| end + 1000 <= s || start >= e + 1000)
        {
            placed.push((start, end));
        }
    }
    let mut base = VariantSet::new();
    let mut deltas = vec![VariantSet::new(); windows];
    for v in variants.iter() {
        let (s, e) = v.ref_interval();
        match placed
            .iter()
            .position(|&(ws, we)| s >= ws && e.max(s + 1) <= we)
        {
            Some(i) => deltas[i].push(v.clone()),
            None => base.push(v.clone()),
        }
    }
    fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    write(
        &format!("{dir}/ref.fa"),
        &write_fasta(&[FastaRecord::new("chr1", reference.clone())], 70),
    )?;
    let vcf = |set: &VariantSet| write_vcf("chr1", &reference, set).map_err(|e| e.to_string());
    write(&format!("{dir}/base.vcf"), &vcf(&base)?)?;
    let mut sizes = Vec::new();
    for (i, delta) in deltas.iter().enumerate() {
        write(&format!("{dir}/delta_{i:03}.vcf"), &vcf(delta)?)?;
        sizes.push(delta.len().to_string());
    }
    Ok(format!(
        "{{\"base\": {}, \"deltas\": [{}]}}",
        base.len(),
        sizes.join(", ")
    ))
}

pub fn load_graph(args: &Args) -> Result<GenomeGraph, String> {
    if let Some(path) = args.get("graph") {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        gfa::from_gfa(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        let path = args.req("index")?;
        Ok(read_index_file(path)
            .map_err(|e| format!("{path}: {e}"))?
            .graph)
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}
