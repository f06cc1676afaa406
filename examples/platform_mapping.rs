//! Mapping onto a predefined memory platform.
//!
//! The paper's methodology serves two targets: a custom hierarchy, and
//! "efficiently using a predefined memory hierarchy with software cache
//! control", where the virtual copy-candidate chain is collapsed onto the
//! available physical layers. This example explores two signals of the
//! motion-estimation kernel plus the SUSAN image and collapses the
//! lowest-power chain of each onto a power-of-two scratch-pad library.
//!
//! Run with `cargo run --release --example platform_mapping`.

use datareuse::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = MemoryTechnology::new();
    let opts = ExploreOptions::default();
    let me = MotionEstimation::SMALL.program();
    let susan = Susan::SMALL.program();
    let library = MemoryLibrary::powers_of_two(16, 4096);
    println!("scratch-pad library: {:?}", library.sizes());

    for (program, array) in [
        (&me, MotionEstimation::OLD),
        (&me, MotionEstimation::NEW),
        (&susan, Susan::IMAGE),
    ] {
        let front = explore_signal(program, array, &opts)?.pareto(&opts, &tech, &BitCount);
        // The front is sorted by size with power falling: its last point
        // is the lowest-power hierarchy.
        let chosen = &front
            .last()
            .expect("the baseline is always on the front")
            .payload
            .0;
        let virtual_sizes: Vec<u64> = chosen.levels.iter().map(|l| l.words).collect();
        let physical = library.collapse(&virtual_sizes);
        println!(
            "signal `{array}` ({} Pareto options): virtual chain {:?} -> physical layers {:?}",
            front.len(),
            virtual_sizes,
            physical.iter().map(|(w, _)| *w).collect::<Vec<_>>()
        );
    }
    Ok(())
}
