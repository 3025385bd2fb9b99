//! Multispectral integration: the synthetic IR channel resolves matches
//! the visible channel cannot — the §6 "multispectral information"
//! extension wired to the satdata generator.

use sma::core::ext::multispectral::{semifluid_correspondence_ms, ChannelDiscriminants};
use sma::core::template_map::semifluid_correspondence;
use sma::grid::{BorderPolicy, Grid};
use sma::satdata::hurricane_frederic_analog;
use sma::satdata::multispectral::{ir_from_height, ir_sequence, IrParams};
use sma::surface::GeomField;

/// Discriminant plane of an image with the paper's 5x5 patch window.
fn disc(img: &Grid<f32>) -> Grid<f32> {
    GeomField::compute_par(img, 2, BorderPolicy::Clamp).discriminant_plane()
}

#[test]
fn ir_channel_advects_with_scene() {
    let seq = hurricane_frederic_analog(64, 2, 77);
    let irs = ir_sequence(&seq, IrParams::default());
    // The IR frames connect through the truth flow just as heights do:
    // advecting IR(t) by the flow approximates IR(t+1) over the interior.
    let predicted = sma::satdata::advect::advect(&irs[0], &seq.truth_flows[0], BorderPolicy::Clamp);
    let whole = predicted.rms_diff(&irs[1]);
    // The IR texture term is static (emissivity), so allow its amplitude.
    assert!(whole < 0.1, "IR advection residual {whole}");
}

#[test]
fn visible_plus_ir_beats_visible_alone_on_flat_albedo() {
    // Construct a case where the visible channel is uninformative (flat
    // albedo cloud sheet) but heights are structured: monochannel
    // semi-fluid matching cannot find the true shift, the IR channel can.
    let heights0 = Grid::from_fn(48, 48, |x, y| {
        ((x as f32 * 0.5).sin() + (y as f32 * 0.4).cos()) * 2.0 + 5.0
    });
    let heights1 = sma::grid::warp::translate(&heights0, -1.0, -1.0, BorderPolicy::Clamp);
    let vis0 = Grid::filled(48, 48, 0.8f32); // featureless bright deck
    let vis1 = vis0.clone();
    let ir0 = ir_from_height(
        &heights0,
        IrParams {
            texture_amp: 0.0,
            ..IrParams::default()
        },
    );
    let ir1 = ir_from_height(
        &heights1,
        IrParams {
            texture_amp: 0.0,
            ..IrParams::default()
        },
    );

    let (pos_vis, score_vis) =
        semifluid_correspondence(&disc(&vis0), &disc(&vis1), 24, 24, 0, 0, 1, 2);
    // Flat visible: all candidates tie at zero, the row-major tie-break
    // wins — not the true (+1, +1).
    assert_eq!(score_vis, 0.0);
    assert_eq!(pos_vis, (23, 23));

    let channels = vec![
        ChannelDiscriminants {
            before: disc(&vis0),
            after: disc(&vis1),
            weight: 1.0,
        },
        ChannelDiscriminants {
            before: disc(&ir0),
            after: disc(&ir1),
            weight: 1.0,
        },
    ];
    let (pos_ms, _) = semifluid_correspondence_ms(&channels, 24, 24, 0, 0, 1, 2);
    assert_eq!(
        pos_ms,
        (25, 25),
        "IR channel must resolve the true (+1,+1) shift"
    );
}

#[test]
fn ir_separates_equal_brightness_decks_in_scene() {
    let seq = hurricane_frederic_analog(64, 2, 9);
    let ir = ir_from_height(&seq.frames[0].height, IrParams::default());
    // Correlation between IR and height must be strongly positive.
    let h = &seq.frames[0].height;
    let (mh, mi) = (h.mean(), ir.mean());
    let mut cov = 0.0f64;
    let mut vh = 0.0f64;
    let mut vi = 0.0f64;
    for y in 0..64 {
        for x in 0..64 {
            let a = (h.at(x, y) - mh) as f64;
            let b = (ir.at(x, y) - mi) as f64;
            cov += a * b;
            vh += a * a;
            vi += b * b;
        }
    }
    let corr = cov / (vh * vi).sqrt();
    assert!(corr > 0.9, "IR/height correlation {corr}");
}
