//! Regenerates the paper's figures and tables by name.
//!
//! ```sh
//! AERGIA_SCALE=smoke cargo bench --bench figures -- fig6_iid   # one figure
//! AERGIA_SCALE=smoke cargo bench --bench figures               # all of them
//! cargo bench --bench figures -- --list                        # their names
//! ```
//!
//! Figures run in the order named, at the scale `AERGIA_SCALE` selects. A
//! figure whose checked claim fails panics, so the process exits non-zero.

use aergia_bench::figures::FIGURES;
use aergia_bench::Scale;

fn main() {
    // Cargo appends `--bench` to every `harness = false` bench target.
    let args: Vec<String> = std::env::args().skip(1).filter(|arg| arg != "--bench").collect();
    let names = || FIGURES.iter().map(|&(name, _)| name);
    if args.iter().any(|arg| arg == "--list") {
        names().for_each(|name| println!("{name}"));
        return;
    }

    let selected: Vec<fn(Scale)> = if args.is_empty() {
        FIGURES.iter().map(|&(_, figure)| figure).collect()
    } else {
        args.iter()
            .map(|arg| match FIGURES.iter().find(|(name, _)| name == arg) {
                Some(&(_, figure)) => figure,
                None => {
                    let known = names().collect::<Vec<_>>().join(", ");
                    eprintln!("figures: unknown figure {arg:?}; known: {known}");
                    std::process::exit(2);
                }
            })
            .collect()
    };
    let scale = Scale::from_env();
    for figure in selected {
        figure(scale);
    }
}
