//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p pdo-bench --bin report -- all
//! cargo run --release -p pdo-bench --bin report -- fig10
//! ```
//!
//! Subcommands: `fig5`, `fig6`, `fig10`, `fig11`, `fig12`, `fig13`,
//! `codesize`, `ablation`, `all` (the default). `--quick` times 5
//! interleaved rounds per cell instead of 101; Fig 10 is modeled on cost
//! units and reads the same either way. Measured numbers are printed next
//! to the paper's published values; absolute magnitudes differ (different
//! substrate and hardware), the comparison target is the shape.

use pdo_bench::{ablate, paper, percent, secc, sizes, video, xcli};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);
    // Interleaved orig/opt rounds per timed cell.
    let rounds: usize = if args.iter().any(|a| a == "--quick") {
        5
    } else {
        101
    };

    match what {
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig10" => fig10(),
        "fig11" => fig11(rounds),
        "fig12" => fig12(rounds),
        "fig13" => fig13(rounds),
        "codesize" => codesize(),
        "ablation" => ablation(rounds),
        "all" => {
            fig5();
            fig6();
            fig10();
            fig11(rounds);
            fig12(rounds);
            fig13(rounds);
            codesize();
            ablation(rounds);
        }
        other => {
            eprintln!("unknown report `{other}`");
            eprintln!("known: fig5 fig6 fig10 fig11 fig12 fig13 codesize ablation all [--quick]");
            std::process::exit(2);
        }
    }
}

/// A cost-units cell: original → optimized units of one operation.
fn units(orig: u64, opt: u64) -> String {
    format!("{orig} → {opt}")
}

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

fn fig5() {
    header("Figure 5: event graph generated from the video player");
    let lab = video::VideoLab::prepare(video::THRESHOLD);
    let (listing, dot) = video::fig5_text(&lab);
    println!("{listing}");
    println!("--- graphviz ---");
    println!("{dot}");
}

fn fig6() {
    header("Figure 6: reduced event graph (threshold = 300)");
    let lab = video::VideoLab::prepare(video::THRESHOLD);
    let (listing, dot) = video::fig6_text(&lab);
    println!("{listing}");
    println!("--- graphviz ---");
    println!("{dot}");
    println!("--- event chains in the reduced graph ---");
    for chain in lab.profile.chains() {
        let names: Vec<&str> = chain
            .iter()
            .map(|&e| lab.base.module.event_name(e))
            .collect();
        println!("  {}", names.join(" -> "));
    }
}

fn fig10() {
    header("Figure 10: video player optimization results");
    let lab = video::VideoLab::prepare(video::THRESHOLD);
    let rows = video::fig10_rows(&lab);
    println!(
        "{:>5}  {:>11} {:>11} {:>6}   {:>11} {:>11} {:>6}   | paper: total%  handler%",
        "fps", "orig tot(s)", "opt tot(s)", "(%)", "orig hdl(s)", "opt hdl(s)", "(%)"
    );
    for row in rows {
        let p = paper::FIG10
            .iter()
            .find(|(r, ..)| *r == row.rate)
            .expect("paper row");
        println!(
            "{:>5}  {:>11.2} {:>11.2} {:>6.1}   {:>11.2} {:>11.2} {:>6.1}   |        {:>5.1}  {:>7.1}",
            row.rate,
            row.orig_total_s,
            row.opt_total_s,
            percent(row.opt_total_s, row.orig_total_s),
            row.orig_handler_s,
            row.opt_handler_s,
            percent(row.opt_handler_s, row.orig_handler_s),
            p.2 * 100.0 / p.1,
            p.4 * 100.0 / p.3,
        );
    }
}

fn fig11(rounds: usize) {
    header("Figure 11: event processing times in the video player");
    let lab = video::VideoLab::prepare(video::THRESHOLD);
    let rows = video::fig11_rows(&lab, rounds);
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>12}   | paper: {:>8} {:>8} {:>9}",
        "event", "orig (ns)", "opt (ns)", "speedup%", "units", "orig µs", "opt µs", "speedup%"
    );
    for row in rows {
        let p = paper::FIG11
            .iter()
            .find(|(n, ..)| *n == row.event)
            .expect("paper row");
        println!(
            "{:<14} {:>12.0} {:>12.0} {:>9.1} {:>12}   |        {:>8.0} {:>8.0} {:>9.1}",
            row.event,
            row.orig_ns,
            row.opt_ns,
            100.0 - percent(row.opt_ns, row.orig_ns),
            units(row.orig_units, row.opt_units),
            p.1,
            p.2,
            100.0 - p.2 * 100.0 / p.1,
        );
    }
}

fn fig12(rounds: usize) {
    header("Figure 12: impact of optimization in SecComm");
    let lab = secc::SecLab::prepare(50);
    let rows = secc::fig12_rows(&lab, rounds);
    println!(
        "{:>6}  {:>11} {:>11} {:>6} {:>10}  {:>11} {:>11} {:>6} {:>10}   | paper: push%  pop%",
        "size", "push orig", "push opt", "(%)", "units", "pop orig", "pop opt", "(%)", "units"
    );
    for row in rows {
        let p = paper::FIG12
            .iter()
            .find(|(s, ..)| *s == row.size)
            .expect("paper row");
        println!(
            "{:>6}  {:>11.0} {:>11.0} {:>6.1} {:>10}  {:>11.0} {:>11.0} {:>6.1} {:>10}   |        {:>5.1}  {:>5.1}",
            row.size,
            row.push_orig_ns,
            row.push_opt_ns,
            percent(row.push_opt_ns, row.push_orig_ns),
            units(row.push_orig_units, row.push_opt_units),
            row.pop_orig_ns,
            row.pop_opt_ns,
            percent(row.pop_opt_ns, row.pop_orig_ns),
            units(row.pop_orig_units, row.pop_opt_units),
            p.2 * 100.0 / p.1,
            p.4 * 100.0 / p.3,
        );
    }
    let (des_ns, md5_ns) = secc::kernel_floor();
    println!("kernel floor: DES {des_ns:.0} ns/block, keyed MD5 {md5_ns:.0} ns/KiB");
}

fn fig13(rounds: usize) {
    header("Figure 13: optimization of X events");
    let lab = xcli::XLab::prepare(100);
    let rows = xcli::fig13_rows(&lab, rounds);
    println!(
        "{:<8} {:>12} {:>12} {:>6} {:>10}   | paper: {:>8} {:>8} {:>6}",
        "type", "orig (ns)", "opt (ns)", "(%)", "units", "orig µs", "opt µs", "(%)"
    );
    for row in rows {
        let p = paper::FIG13
            .iter()
            .find(|(n, ..)| *n == row.event)
            .expect("paper row");
        println!(
            "{:<8} {:>12.0} {:>12.0} {:>6.1} {:>10}   |        {:>8.0} {:>8.0} {:>6.1}",
            row.event,
            row.orig_ns,
            row.opt_ns,
            percent(row.opt_ns, row.orig_ns),
            units(row.orig_units, row.opt_units),
            p.1,
            p.2,
            p.2 * 100.0 / p.1,
        );
    }
}

fn codesize() {
    header("Section 4.2: code-size impact");
    let vlab = video::VideoLab::prepare(video::THRESHOLD);
    let slab = secc::SecLab::prepare(50);
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>16}   | paper (whole binary)",
        "program", "before", "after", "IR growth", "whole-prog eqv"
    );
    for row in sizes::size_rows(&vlab, &slab) {
        let p = paper::CODE_SIZE
            .iter()
            .find(|(n, _)| *n == row.program)
            .expect("paper row");
        println!(
            "{:<14} {:>8} {:>8} {:>9.1}% {:>15.2}%   |  +{:.1}%",
            row.program, row.before, row.after, row.growth_percent, row.whole_program_percent, p.1
        );
    }
    println!();
    println!("optimization reports:");
    println!("--- video player ---");
    println!(
        "{}",
        vlab.optimization.report.render(&vlab.optimization.module)
    );
    println!("--- SecComm ---");
    println!(
        "{}",
        slab.optimization.report.render(&slab.optimization.module)
    );
}

fn ablation(rounds: usize) {
    header("Ablation: SecComm push chain under partial optimizations");
    let rows = ablate::ablation_rows(50, rounds);
    println!(
        "{:<32} {:>12} {:>16} {:>14}",
        "configuration", "push (ns)", "abstract cost", "super instrs"
    );
    for row in rows {
        println!(
            "{:<32} {:>12.0} {:>16} {:>14}",
            row.name, row.push_ns, row.weighted_cost, row.super_instrs
        );
    }
}
