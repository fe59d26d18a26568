//! `fssga-lint` — static analysis gate for the FSSGA workspace.
//!
//! Audits every built-in library program (dead code, totality, SM
//! property), prints the findings, and exits non-zero if any
//! error-severity finding exists. The `verify` subcommand checks every
//! shipped protocol instead.
//!
//! Usage:
//!     fssga-lint              # audit the library programs
//!     fssga-lint --blowup     # also print the conversion blow-up table (TSV)
//!     fssga-lint --blowup-json  # ... as JSON
//!     fssga-lint verify       # model-check every shipped protocol at full
//!                             # contract scale, growth probe and query
//!                             # bounds included

use fssga_analysis::blowup;
use fssga_analysis::lint;

/// Runs the `fssga-verify` model checker over every shipped protocol at
/// full contract coverage, prints per-protocol reports, and exits 1 on
/// any error-severity finding.
fn run_verify() -> ! {
    println!("fssga-lint verify: model-checking shipped protocol contracts...");
    let results = fssga_verify::verify_shipped();
    let mut failed = 0usize;
    for r in &results {
        let status = if r.report.is_clean() { "ok" } else { "FAIL" };
        println!("\n=== {} [{status}] ===", r.name);
        print!("{}", r.report);
        if !r.report.is_clean() {
            failed += 1;
        }
    }
    println!(
        "\nfssga-lint verify: {}/{} protocols clean",
        results.len() - failed,
        results.len()
    );
    std::process::exit(if failed > 0 { 1 } else { 0 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("verify") {
        if args.len() > 1 {
            eprintln!("fssga-lint verify takes no further arguments");
            std::process::exit(2);
        }
        run_verify();
    }
    for a in &args {
        if a != "--blowup" && a != "--blowup-json" {
            eprintln!("unknown flag {a}; usage: fssga-lint [verify | --blowup | --blowup-json]");
            std::process::exit(2);
        }
    }

    println!("fssga-lint: auditing library programs...");
    let report = lint::lint_library();

    println!("{report}");

    if args.iter().any(|a| a == "--blowup") {
        println!("\nconversion blow-up accounting (Lemmas 3.5 / 3.8 / 3.9):");
        print!("{}", blowup::to_tsv(&lint::blowup_table()));
    }
    if args.iter().any(|a| a == "--blowup-json") {
        println!("{}", blowup::to_json(&lint::blowup_table()));
    }

    if !report.is_clean() {
        std::process::exit(1);
    }
}
