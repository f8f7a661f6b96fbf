//! `dedup_block` and `dedup_serve`: catalog tables in, match file out,
//! through `em_block::DedupPipeline`. The two share every line of driver
//! code and differ only in the scorer and the table sizes, which is what
//! makes one the bypass workload of the other.

use crate::layers;
use crate::model::{bench_matcher, catalog_tokenizer, warmup_pairs};
use crate::report::Outcome;
use crate::spec::{
    Sizes, DEDUP_BLOCK, DEDUP_SERVE, RECALL_FLOOR, RESCORE_SAMPLES, SCORE_TOLERANCE,
};
use crate::stats::{fast_quartile, peak_rss_mib, rate};
use crate::trace::{SpanLog, TimedScorer, TimedTable};
use crate::{em_obs_recording, timed_setup, RunArgs};
use em_block::{
    read_matches, BlockIndex, BlockerConfig, BlockingEval, DedupPipeline, FnTable, JaccardScorer,
    PairScorer, PipelineConfig, PipelineReport, ProbeScratch, Row, TableSource,
};
use em_data::CatalogTables;
use em_serve::{ServeConfig, ServeMatcher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The pipeline's production blocker (the one `blockbench` ships):
/// one shared rare token, ubiquitous tokens stop-worded out.
fn blocker() -> BlockerConfig {
    BlockerConfig::Token {
        min_shared: 1,
        stop_fraction: 0.0002,
    }
}

/// Everything set-up builds: the tables and, for `dedup_serve`, the
/// started matcher.
struct Setup {
    tables: CatalogTables,
    gold: u64,
    matcher: Option<ServeMatcher>,
}

fn set_up(serve: bool, args: &RunArgs) -> Setup {
    let sizes = &args.sizes;
    let n = if serve {
        sizes.serve_rows
    } else {
        sizes.block_rows
    };
    let tables = CatalogTables::new(n, n, args.seed);
    let gold = tables.gold_total();
    let matcher = serve.then(|| {
        let frozen = bench_matcher(catalog_tokenizer(sizes), sizes);
        let config = ServeConfig::builder()
            .workers(1)
            .build()
            .expect("valid serve config");
        ServeMatcher::start(frozen, config)
    });
    Setup {
        tables,
        gold,
        matcher,
    }
}

/// What the stand-alone pass over the blocker found and cost.
struct BlockEval {
    recall: f64,
    reduction: f64,
    candidates: u64,
    gold_found: u64,
    postings: u64,
    index_build_s: f64,
    /// Row generation inside the index build (so the build's self time
    /// is `index_build_s - index_rowgen_s`).
    index_rowgen_s: f64,
    probe_calls: u64,
    probe_s: f64,
}

/// Build the index and stream every candidate against the gold oracle:
/// the deterministic recall / reduction numbers, and em-block's own
/// build and probe cost over the workload's tables.
fn evaluate(tables: &CatalogTables, gold: u64, log: &SpanLog) -> BlockEval {
    let (n_a, n_b) = (tables.len_a(), tables.len_b());
    let bare_b = tables.table_b();
    let table_b = TimedTable::new(&bare_b, log, 0, 0);
    let start = Instant::now();
    let index = BlockIndex::build(&blocker(), &table_b);
    let built = Instant::now();
    log.add("block.index_build", start, built, 0, 0);
    // Rows first, probes after, so the probe loop times em-block alone.
    let rows: Vec<Row> = (0..n_a).map(|i| tables.row_a(i)).collect();
    let mut scratch = ProbeScratch::new(n_b);
    let mut hits: Vec<Vec<u32>> = Vec::with_capacity(rows.len());
    let probe_start = Instant::now();
    for row in &rows {
        let mut out = Vec::new();
        index.probe_row(row, &mut scratch, &mut out);
        hits.push(out);
    }
    let probe_end = Instant::now();
    log.add("block.probe", probe_start, probe_end, 0, 0);
    let mut eval = BlockingEval::new(n_a, n_b, gold);
    for (i, row_hits) in hits.iter().enumerate() {
        for &j in row_hits {
            eval.observe(tables.is_match(i as u32, j));
        }
    }
    BlockEval {
        recall: eval.recall(),
        reduction: eval.reduction(),
        candidates: eval.candidates(),
        gold_found: eval.found(),
        postings: index.postings_total(),
        index_build_s: (built - start).as_secs_f64(),
        index_rowgen_s: table_b.busy_s(),
        probe_calls: rows.len() as u64,
        probe_s: (probe_end - probe_start).as_secs_f64(),
    }
}

/// One timed pipeline run.
struct Unit {
    traced: bool,
    rows: u32,
    wall_s: f64,
    report: PipelineReport,
    rowgen_s: f64,
    rowgen_calls: u64,
    submit_s: f64,
    wait_s: f64,
}

/// Run the pipeline once over `table_a` × `table_b`. A traced unit wraps
/// both tables and the scorer; a plain unit hands them over bare.
fn run_unit<A, B, S>(
    config: PipelineConfig,
    table_a: &A,
    table_b: &B,
    scorer: &S,
    traced: bool,
    log: &SpanLog,
    op: u64,
) -> Result<Unit, String>
where
    A: TableSource,
    B: TableSource,
    S: PairScorer,
{
    let pipeline = DedupPipeline::new(config);
    let rows = table_a.len();
    if !traced {
        let start = Instant::now();
        let report = pipeline
            .run(table_a, table_b, scorer)
            .map_err(|e| e.to_string())?;
        return Ok(Unit {
            traced,
            rows,
            wall_s: start.elapsed().as_secs_f64(),
            report,
            rowgen_s: 0.0,
            rowgen_calls: 0,
            submit_s: 0.0,
            wait_s: 0.0,
        });
    }
    let span = log.open("block.pipeline.run", 0, op);
    let timed_a = TimedTable::new(table_a, log, span, op);
    let timed_b = TimedTable::new(table_b, log, span, op);
    let timed_scorer = TimedScorer::new(scorer, log, span, op);
    let start = Instant::now();
    let result = pipeline.run(&timed_a, &timed_b, &timed_scorer);
    let wall_s = start.elapsed().as_secs_f64();
    log.close(span);
    Ok(Unit {
        traced,
        rows,
        wall_s,
        report: result.map_err(|e| e.to_string())?,
        rowgen_s: timed_a.busy_s() + timed_b.busy_s(),
        rowgen_calls: timed_a.calls() + timed_b.calls(),
        submit_s: timed_scorer.submit_s(),
        wait_s: timed_scorer.wait_s(),
    })
}

/// Re-score a sample of the decisions on file directly — `JaccardScorer`,
/// or the matcher's frozen model — and compare with what the pipeline wrote.
fn rescore_decisions(
    out: &mut Outcome,
    path: &std::path::Path,
    tables: &CatalogTables,
    matcher: Option<&ServeMatcher>,
) {
    let decisions = match read_matches(path) {
        Ok(d) if !d.is_empty() => d,
        Ok(_) => return out.problem("the last unit wrote no decisions to re-score"),
        Err(e) => return out.problem(format!("cannot read the match file back: {e}")),
    };
    let jaccard = JaccardScorer::default();
    let step = decisions.len().div_ceil(RESCORE_SAMPLES).max(1);
    for d in decisions.iter().step_by(step) {
        let left = tables.row_a(d.a_id as u32).text;
        let right = tables.row_b(d.b_id as u32).text;
        let direct = match matcher {
            Some(m) => m.frozen().score_encodings(&[m.encode_text(&left, &right)])[0],
            None => jaccard
                .submit(&left, &right)
                .and_then(|t| jaccard.wait(t))
                .expect("jaccard cannot fail"),
        };
        if (direct - d.score).abs() > SCORE_TOLERANCE {
            return out.problem(format!(
                "decision ({}, {}) scored {} by the pipeline, {direct} directly",
                d.a_id, d.b_id, d.score
            ));
        }
    }
}

/// Run `dedup_block` (`serve == false`) or `dedup_serve`.
pub fn run(serve: bool, args: &RunArgs, log: &SpanLog) -> Outcome {
    let name = if serve { DEDUP_SERVE } else { DEDUP_BLOCK };
    let mut out = Outcome::new(name, args.traced);
    let sizes: &Sizes = &args.sizes;

    let (setup, setup_s) = timed_setup(sizes.setup_reps, || set_up(serve, args));
    let Setup {
        tables,
        gold,
        matcher,
    } = setup;
    out.end_to_end("setup_s", setup_s);

    // --- Untimed: blocker quality and em-block's stand-alone cost. ------
    let eval = evaluate(&tables, gold, log);
    let n = tables.len_a();

    let out_path: PathBuf = args.out_dir.join(format!("{name}.matches.jsonl"));
    let config = || {
        let mut c = PipelineConfig::new(blocker(), &out_path);
        // The random bench model scores near 0.5; threshold 0 writes
        // every decision, so the gate below can re-score any of them.
        c.threshold = if serve { 0.0 } else { 0.5 };
        c
    };
    let jaccard = JaccardScorer::default();
    let table_b = tables.table_b();

    // --- Untimed warm-up: plans, lazy buffers, the output file. ---------
    // dedup_serve keeps its last rows for this, so no timed unit repeats
    // a pair the score cache has already seen.
    let warm_rows = if serve {
        sizes.serve_unit_rows.min(n / 4)
    } else {
        0
    };
    if let Some(m) = &matcher {
        for (left, right) in warmup_pairs(&tables, sizes.max_len) {
            m.score_text(&left, &right).expect("warm-up score");
        }
        let tail = FnTable::new(warm_rows, |i| tables.row_a(n - warm_rows + i));
        run_unit(config(), &tail, &table_b, m, false, log, 0).expect("warm-up run");
    } else {
        let small = CatalogTables::new(n / 10, n / 10, args.seed);
        run_unit(
            config(),
            &small.table_a(),
            &small.table_b(),
            &jaccard,
            false,
            log,
            0,
        )
        .expect("warm-up run");
    }

    // --- Timed window. ---------------------------------------------------
    // A traced run alternates plain and traced units, so that both sides
    // of `obs.overhead_share` see the same machine state.
    let stats_before = matcher.as_ref().map(ServeMatcher::stats);
    let obs_before = em_obs::snapshot();
    let budget = Duration::from_secs_f64(args.seconds);
    let window = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    let mut next_row = 0u32;
    let mut last = Duration::ZERO;
    while units.len() < 2 || window.elapsed() + last <= budget {
        let traced = args.traced && units.len() % 2 == 1;
        let op = units.len() as u64 + 1;
        em_obs_recording(traced);
        let started = Instant::now();
        let unit = if let Some(m) = &matcher {
            if next_row + sizes.serve_unit_rows > n - warm_rows {
                break; // out of unseen probe rows: stop rather than repeat pairs
            }
            let base = next_row;
            next_row += sizes.serve_unit_rows;
            let slice = FnTable::new(sizes.serve_unit_rows, |i| tables.row_a(base + i));
            run_unit(config(), &slice, &table_b, m, traced, log, op)
        } else {
            run_unit(
                config(),
                &tables.table_a(),
                &table_b,
                &jaccard,
                traced,
                log,
                op,
            )
        };
        last = started.elapsed();
        match unit {
            Ok(u) => {
                let lines = read_matches(&out_path).map(|m| m.len() as u64);
                out.gate(u.report.completed, || format!("unit {op} did not complete"));
                out.gate(lines.as_ref().is_ok_and(|l| *l == u.report.matches), || {
                    format!(
                        "unit {op}: output holds {lines:?} lines, report says {}",
                        u.report.matches
                    )
                });
                out.attempted += u.report.pairs_scored;
                units.push(u);
            }
            Err(e) => {
                out.failed += 1;
                out.attempted += 1;
                out.problem(format!("unit {op} failed: {e}"));
                break;
            }
        }
    }
    em_obs_recording(false);
    let obs_after = em_obs::snapshot();
    let stats_after = matcher.as_ref().map(ServeMatcher::stats);

    // --- Correctness gates. ----------------------------------------------
    out.gate(eval.recall >= RECALL_FLOOR, || {
        format!("blocker recall {} below {RECALL_FLOOR}", eval.recall)
    });
    rescore_decisions(&mut out, &out_path, &tables, matcher.as_ref());

    // --- End-to-end metrics (plain run). -----------------------------------
    let cost = |u: &Unit| u.wall_s / u.report.pairs_scored.max(1) as f64;
    let costs_of = |traced: bool| -> Vec<f64> {
        units
            .iter()
            .filter(|u| u.traced == traced)
            .map(cost)
            .collect()
    };
    out.unit_costs = costs_of(false);
    let s_per_pair = fast_quartile(&out.unit_costs);
    let pairs_per_s = rate(s_per_pair);
    out.end_to_end("pairs_per_s", pairs_per_s);
    out.end_to_end("recall", eval.recall);
    out.end_to_end("reduction_ratio", eval.reduction);
    // No request latency here: both latency cells carry the wall time per
    // 1000 scored pairs.
    let ms_per_kpair = s_per_pair * 1e6;
    out.end_to_end("p50_ms", ms_per_kpair);
    out.end_to_end("p99_ms", ms_per_kpair);
    out.end_to_end("goodput_pairs_per_s", pairs_per_s);
    out.end_to_end("examples_per_s", pairs_per_s);
    out.end_to_end("peak_rss_mib", peak_rss_mib());

    // --- Per-layer metrics and the waterfall (traced run). ------------------
    if args.traced {
        let traced: Vec<&Unit> = units.iter().filter(|u| u.traced).collect();
        let wall: f64 = traced.iter().map(|u| u.wall_s).sum();
        let sum = |f: fn(&Unit) -> f64| traced.iter().map(|u| f(u)).sum::<f64>();
        let rowgen = sum(|u| u.rowgen_s);
        let submit = sum(|u| u.submit_s);
        let wait = sum(|u| u.wait_s);
        // The pipeline's own index build and probes cannot be wrapped, so
        // they are charged at the stand-alone cost: one index build per
        // unit (row generation excluded, it is under rowgen already) and
        // the stand-alone per-row probe cost times the rows probed.
        let index_self = (eval.index_build_s - eval.index_rowgen_s).max(0.0) * traced.len() as f64;
        let probe_per_row = eval.probe_s / eval.probe_calls.max(1) as f64;
        let probe = probe_per_row * sum(|u| u.rows as f64);
        let other = (wall - rowgen - index_self - probe - submit - wait).max(0.0);

        out.layer("bench.traced_wall_s", wall);
        out.layer("bench.units", units.len() as f64);
        out.layer("data.rowgen.calls", sum(|u| u.rowgen_calls as f64));
        out.layer("data.rowgen.busy_s", rowgen);
        out.layer("block.index_build.busy_s", eval.index_build_s);
        out.layer("block.index.postings", eval.postings as f64);
        out.layer("block.probe.calls", eval.probe_calls as f64);
        out.layer("block.probe.busy_s", eval.probe_s);
        out.layer("block.candidates", eval.candidates as f64);
        out.layer(
            "block.candidates_per_probe",
            eval.candidates as f64 / eval.probe_calls.max(1) as f64,
        );
        out.layer(
            "block.candidate_precision",
            eval.gold_found as f64 / eval.candidates.max(1) as f64,
        );
        out.layer("block.pipeline.chunks", sum(|u| u.report.chunks as f64));
        out.layer("block.pipeline.other_s", other);
        out.layer("serve.submit.busy_s", submit);
        out.layer("serve.wait.blocked_s", wait);
        if let (Some(before), Some(after)) = (&stats_before, &stats_after) {
            layers::serve_stats(&mut out, before, after);
        }
        layers::serve_histograms(&mut out, &obs_before, &obs_after);
        if let Some(m) = &matcher {
            let frozen = m.frozen();
            let texts: Vec<(String, String)> = (0..n.min(512))
                .map(|i| (tables.row_a(i).text, tables.row_b(i).text))
                .collect();
            layers::tokenizer_probe(&mut out, m, &texts);
            out.layer(
                "serve.forward.us_per_pair.f32",
                layers::forward_us_per_pair(&frozen),
            );
            layers::kernel_probe(&mut out, sizes.hidden, sizes.inner, false);
            layers::computed_costs(&mut out, &frozen);
            layers::graph_probe(&mut out, &frozen);
        }
        if s_per_pair > 0.0 {
            out.layer(
                "obs.overhead_share",
                fast_quartile(&costs_of(true)) / s_per_pair - 1.0,
            );
        }

        if wall > 0.0 {
            out.waterfall = vec![
                ("data.rowgen", rowgen / wall),
                ("block.index_build (self)", index_self / wall),
                ("block.probe", probe / wall),
                ("serve.submit", submit / wall),
                ("serve.wait", wait / wall),
                ("block.pipeline.other", other / wall),
            ];
            let total: f64 = out.waterfall.iter().map(|(_, s)| s).sum();
            out.gate((total - 1.0).abs() <= 0.05, || {
                format!("waterfall shares sum to {total:.3} of the timed wall, not 1 +- 0.05")
            });
        }
    }
    let _ = std::fs::remove_file(&out_path);
    let mut progress = out_path.into_os_string();
    progress.push(".progress");
    let _ = std::fs::remove_file(PathBuf::from(progress));
    out.finish()
}
