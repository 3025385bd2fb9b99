//! Meteorological wind products from SMA cloud tracking — the paper's
//! motivating application: "Cloud motion vectors from the SMA algorithm
//! can be used to estimate the wind field".
//!
//! Runs semi-fluid tracking on a two-deck layered scene and derives:
//! wind speeds in m/s, divergence/vorticity planes (straight from the
//! per-pixel affine parameters), and the height-resolved wind-layer
//! profile.
//!
//! ```sh
//! cargo run --release --example wind_products
//! ```

use sma::core::analysis::{divergence_plane, vorticity_plane, wind_layers, WindScaling};
use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::grid::Vec2;
use sma::satdata::layers::{CloudLayer, LayeredScene};

fn main() {
    // A two-deck scene: high deck moving east, low deck moving
    // south-west — the multi-layer situation the SMA model was built for.
    let scene = LayeredScene {
        layers: vec![
            CloudLayer::generate(72, 72, 5, 0.68, 9.0, Vec2::new(1.5, 0.0)),
            CloudLayer::generate(72, 72, 9, 0.45, 3.0, Vec2::new(-1.0, 0.5)),
        ],
        background: 0.1,
    };
    let next = scene.step();
    let (i0, h0_flat) = scene.composite();
    let (i1, h1_flat) = next.composite();
    // Real cloud decks have textured tops; the composited height is
    // piecewise constant (one level per deck), which would leave the
    // surface-normal tracker nothing to grip. Add brightness-correlated
    // relief — the same transform at both timesteps, so it advects with
    // the decks.
    let h0 = h0_flat.zip_map(&i0, |&h, &i| h + 2.0 * i);
    let h1 = h1_flat.zip_map(&i1, |&h, &i| h + 2.0 * i);
    println!("two-deck layered scene, 72x72; high deck E at 1.5 px/fr, low deck SW");

    let cfg = SmaConfig {
        model: MotionModel::SemiFluid,
        nz: 2,
        nzs: 2,
        nzt: 2,
        nss: 1,
        nst: 2,
    };
    let frames = SmaFrames::prepare(&i0, &i1, &h0, &h1, &cfg).expect("prepare");
    let margin = cfg.margin() + 2;
    let result = track_all_sequential(&frames, &cfg, Region::Interior { margin }).expect("track");
    println!(
        "tracked {} px, {:.1}% valid\n",
        result.region.area(),
        100.0 * result.valid_fraction()
    );

    // --- Wind speed in physical units ----------------------------------
    // GOES-ish scaling: 1 km pixels, 7.5 minute interval.
    let scaling = WindScaling {
        pixel_km: 1.0,
        interval_minutes: 7.5,
    };
    let speed = scaling.speed_plane(&result.flow());
    let (lo, hi) = speed.min_max();
    println!(
        "wind speed: {:.1}..{:.1} m/s (mean {:.1})",
        lo,
        hi,
        speed.mean()
    );

    // --- Divergence / vorticity from the affine parameters -------------
    let div = divergence_plane(&result);
    let vor = vorticity_plane(&result);
    // Report robust 5th..95th percentile ranges: near-degenerate fits at
    // occlusion boundaries produce a few extreme affine parameters.
    let pct = |g: &sma::grid::Grid<f32>| {
        let mut v: Vec<f32> = g.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (v[v.len() / 20], v[v.len() - 1 - v.len() / 20])
    };
    let (dlo, dhi) = pct(&div);
    let (vlo, vhi) = pct(&vor);
    println!("divergence (5..95%): [{dlo:+.3}, {dhi:+.3}] /frame; vorticity: [{vlo:+.3}, {vhi:+.3}] /frame");

    // --- Height-resolved wind layers ------------------------------------
    let layers = wind_layers(&result, &h0_flat, &[6.0]);
    println!("\nheight-resolved wind profile:");
    for l in &layers {
        if l.count == 0 {
            continue;
        }
        println!(
            "  band [{:>4.1}, {:>4.1}) : {:>5} px, mean wind ({:+.2}, {:+.2}) px/frame = {:.1} m/s",
            l.h_lo,
            l.h_hi,
            l.count,
            l.mean_wind.u,
            l.mean_wind.v,
            scaling.speed_mps(l.mean_wind)
        );
    }
    // The mean is sensitive to occlusion-boundary outliers (low-deck
    // pixels keep vanishing under the moving high deck); the per-class
    // *median* (the §6 classification post-processing) is the robust
    // layered-wind readout.
    use sma::core::ext::classify::classify_by_height;
    let classes = classify_by_height(&h0_flat, &[6.0]);
    let mut band_u: Vec<Vec<f32>> = vec![Vec::new(); 2];
    let mut band_v: Vec<Vec<f32>> = vec![Vec::new(); 2];
    for (x, y) in result.region.pixels() {
        let e = result.estimates.at(x, y);
        // Valid, on-cloud pixels only (clear sky belongs to no deck).
        if e.valid && h0_flat.at(x, y) > 0.5 {
            let c = classes.at(x, y) as usize;
            band_u[c].push(e.displacement.u);
            band_v[c].push(e.displacement.v);
        }
    }
    let med = |v: &mut Vec<f32>| -> f32 {
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    println!("\nrobust (median) layered winds over cloudy, trackable pixels:");
    println!(
        "  low  deck: ({:+.2}, {:+.2}) px/frame  [truth (-1.0, +0.5)]",
        med(&mut band_u[0]),
        med(&mut band_v[0])
    );
    println!(
        "  high deck: ({:+.2}, {:+.2}) px/frame  [truth (+1.5, +0.0)]",
        med(&mut band_u[1]),
        med(&mut band_v[1])
    );
    println!("\n(both deck motions separate correctly: the high band reports eastward");
    println!(" drift, the low band the south-westward drift — to the +-0.5 px integer");
    println!(" quantization of the hypothesis/semi-fluid grid. The low deck is the hard");
    println!(" case: its pixels keep vanishing under the moving high deck.)");
}
