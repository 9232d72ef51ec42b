//! Figures 8a/8b: fractional power and area overhead versus circuit size,
//! with a fitted polynomial trend.
//!
//! The paper plots the +15 FF overheads of Table 1/2 against circuit area
//! and fits a decaying polynomial; both series must fall toward zero as
//! circuits grow.

use crate::fit::{polyfit, r_squared};
use crate::tables::OverheadRow;
use hwm_metering::MeteringError;
use hwm_netlist::CellLibrary;
use hwm_synth::iscas::BenchmarkProfile;
use std::fmt::Write as _;

/// The Figure 8 data: one point per benchmark plus fitted curves.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Circuit sizes (area units, the x axis).
    pub sizes: Vec<f64>,
    /// Fractional power overheads with the +15 FF lock (Figure 8a's y).
    pub power_overheads: Vec<f64>,
    /// Fractional area overheads (Figure 8b's y).
    pub area_overheads: Vec<f64>,
    /// Polynomial fitted to the power series (in 1/x and constant — see
    /// [`fig8`]), as (c0, c1) of `y ≈ c0 + c1/x`.
    pub power_fit: (f64, f64),
    /// Same for the area series.
    pub area_fit: (f64, f64),
    /// R² of the two fits.
    pub power_r2: f64,
    /// R² of the area fit.
    pub area_r2: f64,
}

/// Computes the Figure 8 data. Because the lock's absolute cost is
/// constant, the truthful trend model is `overhead ≈ c0 + c1/size`; we fit
/// that by polynomial regression in `u = 1/size` (degree 1), exactly the
/// decaying shape of the paper's fitted curves. The per-circuit pipeline
/// is fanned across `jobs` threads.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig8(
    profiles: &[BenchmarkProfile],
    lib: &CellLibrary,
    seed: u64,
    jobs: usize,
) -> Result<Fig8, MeteringError> {
    let rows = crate::tables::overhead_rows(profiles, lib, seed, jobs)?;
    Ok(fig8_from_rows(&rows))
}

/// Builds the figure data from precomputed overhead rows.
///
/// Circuits below 100 area units are plotted but excluded from the fit —
/// the paper itself sets s27 aside as "too small to be considered
/// practical", and its extreme point would otherwise skew the intercept.
pub fn fig8_from_rows(rows: &[OverheadRow]) -> Fig8 {
    let sizes: Vec<f64> = rows.iter().map(|r| r.base.area).collect();
    let power: Vec<f64> = rows.iter().map(|r| r.ff15.power()).collect();
    let area: Vec<f64> = rows.iter().map(|r| r.ff15.area()).collect();
    let fit_idx: Vec<usize> = (0..sizes.len()).filter(|&i| sizes[i] >= 100.0).collect();
    let us: Vec<f64> = fit_idx.iter().map(|&i| 1.0 / sizes[i]).collect();
    let pw: Vec<f64> = fit_idx.iter().map(|&i| power[i]).collect();
    let ar: Vec<f64> = fit_idx.iter().map(|&i| area[i]).collect();
    let pfit = polyfit(&us, &pw, 1);
    let afit = polyfit(&us, &ar, 1);
    Fig8 {
        power_r2: r_squared(&us, &pw, &pfit),
        area_r2: r_squared(&us, &ar, &afit),
        sizes,
        power_overheads: power,
        area_overheads: area,
        power_fit: (pfit[0], pfit[1]),
        area_fit: (afit[0], afit[1]),
    }
}

/// Renders both series as aligned text plus the fitted models — the data a
/// plotting tool needs to redraw Figures 8a and 8b.
pub fn render(fig: &Fig8) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "size(area)  %power-ovh  %area-ovh");
    for i in 0..fig.sizes.len() {
        let _ = writeln!(
            out,
            "{:>10.0}  {:>10.4}  {:>9.4}",
            fig.sizes[i], fig.power_overheads[i], fig.area_overheads[i]
        );
    }
    let _ = writeln!(
        out,
        "fig 8a fit: power_ovh ≈ {:.5} + {:.1}/size   (R² = {:.3})",
        fig.power_fit.0, fig.power_fit.1, fig.power_r2
    );
    let _ = writeln!(
        out,
        "fig 8b fit: area_ovh  ≈ {:.5} + {:.1}/size   (R² = {:.3})",
        fig.area_fit.0, fig.area_fit.1, fig.area_r2
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::polyval;
    use hwm_synth::iscas;

    #[test]
    fn overheads_decay_and_fit_well() {
        let lib = CellLibrary::generic();
        let profiles: Vec<BenchmarkProfile> = ["s298", "s526", "s1238", "s9234"]
            .iter()
            .map(|n| iscas::benchmark(n).unwrap())
            .collect();
        let fig = fig8(&profiles, &lib, 31, 1).unwrap();
        // Monotone decay of both series.
        for i in 1..fig.sizes.len() {
            assert!(fig.power_overheads[i] < fig.power_overheads[i - 1]);
            assert!(fig.area_overheads[i] < fig.area_overheads[i - 1]);
        }
        // The 1/size model captures the trend almost perfectly.
        assert!(fig.power_r2 > 0.93, "power R² {}", fig.power_r2);
        assert!(fig.area_r2 > 0.95, "area R² {}", fig.area_r2);
        // Extrapolation to very large circuits tends to ~0. The series are
        // in percent, so "< 1%" is a bound of 1.0 (the area intercept is
        // exactly zero — added area is a constant — while the power
        // intercept carries a little synthesis noise).
        let at = |fit: (f64, f64), size: f64| polyval(&[fit.0, fit.1], 1.0 / size);
        assert!(at(fig.area_fit, 100_000.0) < 1.0);
        assert!(at(fig.power_fit, 500_000.0) < 1.0);
    }

    #[test]
    fn render_contains_fits() {
        let lib = CellLibrary::generic();
        let profiles = vec![
            iscas::benchmark("s298").unwrap(),
            iscas::benchmark("s526").unwrap(),
            iscas::benchmark("s832").unwrap(),
        ];
        let fig = fig8(&profiles, &lib, 32, 1).unwrap();
        let text = render(&fig);
        assert!(text.contains("fig 8a fit"));
        assert!(text.contains("R²"));
    }
}
