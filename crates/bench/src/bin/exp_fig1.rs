//! Experiment E2: regenerate the geometry behind Figure 1 (paper §3).
//!
//! Figure 1 plots a provider's preference tuple against house policy tuples
//! in a 2-D slice of the privacy space and shades three regions: (a) the
//! policy box is bounded by the preference (no violation), (b) it escapes
//! along one dimension, (c) along two. This experiment sweeps the full grid
//! of policy points in the (visibility, granularity) slice for a fixed
//! preference, classifies every cell, renders the panels as ASCII, and
//! reports the region areas.
//!
//! Run with: `cargo run -p qpv-bench --bin exp_fig1`

use qpv_bench::{check, exit_on_diff, write_result};
use qpv_taxonomy::geometry::{figure1_grid, BoxRelation};
use qpv_taxonomy::{Dim, PrivacyPoint};
use serde::Serialize;

#[derive(Serialize)]
struct Fig1Result {
    preference: PrivacyPoint,
    max_x: u32,
    max_y: u32,
    contained: usize,
    escapes_one: usize,
    escapes_two: usize,
    cells: Vec<(u32, u32, u8)>,
}

fn main() {
    println!("== E2: Figure 1 violation geometry (paper §3) ==\n");
    // Preference at (v=3, g=4) in the visibility × granularity slice, as in
    // the figure's S_i × S_j plane; retention held at the preference level.
    let preference = PrivacyPoint::from_raw(3, 4, 2);
    let (max_x, max_y) = (6u32, 6u32);
    let grid = figure1_grid(&preference, Dim::Visibility, Dim::Granularity, max_x, max_y);

    // Render: rows = granularity (top = high), cols = visibility.
    println!("preference point P = (vis=3, gran=4); policy grid classification:");
    println!(
        "  '.' contained (panel a)   '1' one-dim escape (panel b)   '2' two-dim escape (panel c)\n"
    );
    for y in (0..=max_y).rev() {
        let mut line = format!("  gran={y} |");
        for x in 0..=max_x {
            let (_, _, rel) = grid[(y * (max_x + 1) + x) as usize];
            let ch = match rel.escape_count() {
                0 => '.',
                1 => '1',
                _ => '2',
            };
            line.push(' ');
            line.push(ch);
        }
        println!("{line}");
    }
    println!("          +{}", "--".repeat(max_x as usize + 1));
    let cols: Vec<String> = (0..=max_x).map(|x| x.to_string()).collect();
    println!("       vis  {}\n", cols.join(" "));

    let contained = grid
        .iter()
        .filter(|(_, _, r)| *r == BoxRelation::Contained)
        .count();
    let one = grid
        .iter()
        .filter(|(_, _, r)| r.escape_count() == 1)
        .count();
    let two = grid
        .iter()
        .filter(|(_, _, r)| r.escape_count() == 2)
        .count();

    // The figure's structural claims, checked as exact areas:
    // containment region = (3+1)×(4+1) cells; everything else escapes.
    check("panel (a) area: (v+1)(g+1) cells", 20, contained);
    check(
        "panel (b) area: one-dim escapes",
        (3 + 1) * (6 - 4) + (4 + 1) * (6 - 3),
        one,
    );
    check("panel (c) area: two-dim escapes", (6 - 3) * (6 - 4), two);
    check(
        "total cells",
        ((max_x + 1) * (max_y + 1)) as usize,
        contained + one + two,
    );
    // Violation iff outside the box (Definition 1 ⇔ Figure 1).
    check(
        "violations = total − contained",
        ((max_x + 1) * (max_y + 1)) as usize - contained,
        one + two,
    );

    let cells: Vec<(u32, u32, u8)> = grid
        .iter()
        .map(|(x, y, r)| (*x, *y, r.escape_count() as u8))
        .collect();
    let path = write_result(
        "exp_fig1",
        &Fig1Result {
            preference,
            max_x,
            max_y,
            contained,
            escapes_one: one,
            escapes_two: two,
            cells,
        },
    );
    println!("\nresult JSON: {}", path.display());
    exit_on_diff();
}
