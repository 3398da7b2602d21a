//! Appendix reproductions: the fitted models of Tables A.1–A.5 and the
//! fitted-vs-measured curves of Figure A.1.

use crate::render::compare;
use crate::ExperimentContext;
use analysis::characterize::{first_query, interarrival, last_query, passive, queries};
use geoip::Region;
use stats::fit::SideFit;
use stats::ks::ks_one_sample;

fn period_name(peak: bool) -> &'static str {
    if peak {
        "peak"
    } else {
        "non-peak"
    }
}

/// Table A.1 — passive session duration (lognormal ‖ lognormal at 2 min).
pub(crate) fn table_a1(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    out.push_str("Passive connected-session duration, North American peers\n\n");
    let paper = [
        (true, 0.75, "σ=2.502 µ=2.108", "σ=2.749 µ=6.397"),
        (false, 0.55, "σ=2.383 µ=2.201", "σ=2.848 µ=6.817"),
    ];
    for (peak, w_paper, body_paper, tail_paper) in paper {
        match passive::fit_passive_duration(&ctx.ft, Region::NorthAmerica, peak, &ctx.diurnal) {
            Ok(fit) => {
                out.push_str(&format!(
                    "{} period ({} sessions):\n",
                    period_name(peak),
                    fit.n_body + fit.n_tail
                ));
                out.push_str(&compare(
                    "  body weight (duration < 2 min)",
                    &format!("{w_paper:.2}"),
                    &format!("{:.2}", fit.body_weight),
                ));
                out.push_str(&compare("  body", body_paper, &fit.body.describe()));
                out.push_str(&compare("  tail", tail_paper, &fit.tail.describe()));
            }
            Err(e) => out.push_str(&format!(
                "{} period: fit unavailable ({e})\n",
                period_name(peak)
            )),
        }
    }
    out.push_str(
        "\n(ground truth = exact Table A.1 parameters; the tail is recovered by a\n\
         doubly-truncated MLE on the fully-observed (2 min, 1 day) window. The\n\
         body window, 64-120 s, spans 0.25σ of the generating lognormal — two\n\
         parameters are not identifiable from it, so the body WEIGHT is the\n\
         meaningful comparison, as in the paper.)\n",
    );
    out
}

/// Table A.2 — queries per active session (lognormal per region).
pub(crate) fn table_a2(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    out.push_str("Active session length in queries, lognormal fits\n\n");
    let paper = [
        (Region::NorthAmerica, "σ=1.360 µ=-0.0673"),
        (Region::Europe, "σ=1.306 µ=0.520"),
        (Region::Asia, "σ=1.618 µ=-1.029"),
    ];
    for (region, reference) in paper {
        match queries::fit_queries(&ctx.ft, region) {
            Ok(fit) => {
                let n = queries::query_counts(&ctx.ft, region).len();
                out.push_str(&compare(
                    &format!("{} ({} active sessions)", region.name(), n),
                    reference,
                    &format!("σ={:.3} µ={:.3}", fit.sigma(), fit.mu()),
                ));
            }
            Err(e) => out.push_str(&format!("{}: fit unavailable ({e})\n", region.name())),
        }
    }
    out.push_str(
        "\n(integer counts are fitted with a −0.5 continuity correction; the\n\
         region ordering EU > NA > Asia in µ is the paper's key finding)\n",
    );
    out
}

/// Table A.3 — time until first query (Weibull ‖ lognormal).
pub(crate) fn table_a3(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    out.push_str("Time until first query, North American peers\n\n");
    let paper = [
        (
            true,
            first_query::CountClass::Lt3,
            "α=1.477 λ=0.005252",
            "σ=2.905 µ=5.091",
        ),
        (
            true,
            first_query::CountClass::Eq3,
            "α=1.261 λ=0.01081",
            "σ=2.045 µ=6.303",
        ),
        (
            true,
            first_query::CountClass::Gt3,
            "α=0.9821 λ=0.02662",
            "σ=2.359 µ=6.301",
        ),
        (
            false,
            first_query::CountClass::Lt3,
            "α=1.159 λ=0.01779",
            "σ=3.384 µ=5.144",
        ),
        (
            false,
            first_query::CountClass::Eq3,
            "α=1.207 λ=0.01446",
            "σ=2.324 µ=6.400",
        ),
        (
            false,
            first_query::CountClass::Gt3,
            "α=0.9351 λ=0.03380",
            "σ=2.463 µ=7.186",
        ),
    ];
    for (peak, class, body_paper, tail_paper) in paper {
        match first_query::fit_first_query(&ctx.ft, Region::NorthAmerica, peak, class, &ctx.diurnal)
        {
            Ok(fit) => {
                out.push_str(&format!(
                    "{} / {} ({} sessions):\n",
                    period_name(peak),
                    class.label(),
                    fit.n_body + fit.n_tail
                ));
                out.push_str(&compare(
                    "  body (Weibull)",
                    body_paper,
                    &fit.body.describe(),
                ));
                out.push_str(&compare(
                    "  tail (Lognormal)",
                    tail_paper,
                    &fit.tail.describe(),
                ));
            }
            Err(e) => out.push_str(&format!(
                "{} / {}: fit unavailable ({e})\n",
                period_name(peak),
                class.label()
            )),
        }
    }
    out
}

/// Table A.4 — query interarrival time (lognormal ‖ Pareto at 103 s).
pub(crate) fn table_a4(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    out.push_str("Query interarrival time, North American peers\n\n");
    let paper = [
        (true, "σ=1.625 µ=3.353", "α=0.9041 β=103"),
        (false, "σ=1.410 µ=2.933", "α=1.143 β=103"),
    ];
    for (peak, body_paper, tail_paper) in paper {
        match interarrival::fit_interarrival(&ctx.ft, Region::NorthAmerica, peak, &ctx.diurnal) {
            Ok(fit) => {
                out.push_str(&format!(
                    "{} period ({} gaps):\n",
                    period_name(peak),
                    fit.n_body + fit.n_tail
                ));
                out.push_str(&compare(
                    "  body (Lognormal)",
                    body_paper,
                    &fit.body.describe(),
                ));
                out.push_str(&compare(
                    "  tail (Pareto)",
                    tail_paper,
                    &fit.tail.describe(),
                ));
                if let SideFit::Pareto(p) = fit.tail {
                    if peak {
                        out.push_str(&compare(
                            "  heavy tail (α < 1 ⇒ infinite mean)",
                            "yes (α = 0.904)",
                            if p.alpha() < 1.0 { "yes" } else { "no" },
                        ));
                    }
                }
            }
            Err(e) => out.push_str(&format!(
                "{} period: fit unavailable ({e})\n",
                period_name(peak)
            )),
        }
    }
    out
}

/// Table A.5 — time after last query (lognormal).
pub(crate) fn table_a5(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    out.push_str("Time after the last query, North American peers\n\n");
    let paper = [
        (true, last_query::ModelClass::One, "σ=2.361 µ=4.879"),
        (true, last_query::ModelClass::TwoToSeven, "σ=2.259 µ=5.686"),
        (true, last_query::ModelClass::Gt7, "σ=2.145 µ=6.107"),
        (false, last_query::ModelClass::One, "σ=2.162 µ=4.760"),
        (false, last_query::ModelClass::TwoToSeven, "σ=2.156 µ=5.672"),
        (false, last_query::ModelClass::Gt7, "σ=2.286 µ=6.036"),
    ];
    let mut medians = Vec::new();
    for (peak, class, reference) in paper {
        match last_query::fit_time_after_last(
            &ctx.ft,
            Region::NorthAmerica,
            peak,
            class,
            &ctx.diurnal,
        ) {
            Ok(fit) => {
                out.push_str(&compare(
                    &format!("{} / {}", period_name(peak), class.label()),
                    reference,
                    &format!("σ={:.3} µ={:.3}", fit.sigma(), fit.mu()),
                ));
                if peak {
                    medians.push(fit.mu());
                }
            }
            Err(e) => out.push_str(&format!(
                "{} / {}: fit unavailable ({e})\n",
                period_name(peak),
                class.label()
            )),
        }
    }
    if medians.len() == 3 {
        out.push_str(&compare(
            "µ increases with query count (Fig 9(b))",
            "yes",
            if medians[0] < medians[1] && medians[1] < medians[2] {
                "yes"
            } else {
                "no"
            },
        ));
    }
    out
}

/// Figure A.1 — fitted vs measured distributions (KS distances).
pub(crate) fn fig_a1(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    out.push_str("Fitted vs measured, North American peers (KS statistic; smaller = closer)\n\n");

    // (a) Number of queries per active session vs the fitted lognormal.
    if let Ok(fit) = queries::fit_queries(&ctx.ft, Region::NorthAmerica) {
        let counts: Vec<f64> = queries::query_counts(&ctx.ft, Region::NorthAmerica)
            .iter()
            .map(|&c| c - 0.5)
            .collect();
        if let Ok(ks) = ks_one_sample(&counts, &fit) {
            out.push_str(&compare(
                "(a) #queries vs fitted lognormal",
                "visually close (Fig A.1(a))",
                &format!("D = {:.3} (n = {})", ks.statistic, counts.len()),
            ));
        }
    }

    // (b) Time until first query, peak, <3 queries vs the fitted composite.
    if let Ok(fit) = first_query::fit_first_query(
        &ctx.ft,
        Region::NorthAmerica,
        true,
        first_query::CountClass::Lt3,
        &ctx.diurnal,
    ) {
        let samples: Vec<f64> = ctx
            .ft
            .sessions
            .iter()
            .filter(|s| {
                s.region == Region::NorthAmerica
                    && !s.is_passive()
                    && s.n_queries() < 3
                    && ctx.diurnal.is_peak(Region::NorthAmerica, s.start_hour())
            })
            .filter_map(|s| s.time_to_first_query())
            .filter(|&t| t > 0.0)
            .collect();
        if let (SideFit::Weibull(b), SideFit::Lognormal(t)) = (fit.body, fit.tail) {
            if let Ok(composite) = stats::dist::BodyTail::new(b, t, fit.split, fit.body_weight) {
                if let Ok(ks) = ks_one_sample(&samples, &composite) {
                    out.push_str(&compare(
                        "(b) first-query delay vs Weibull‖lognormal",
                        "visually close (Fig A.1(b))",
                        &format!("D = {:.3} (n = {})", ks.statistic, samples.len()),
                    ));
                }
            }
        }
    }

    // (c) Interarrival, peak vs the fitted lognormal‖Pareto composite.
    if let Ok(fit) =
        interarrival::fit_interarrival(&ctx.ft, Region::NorthAmerica, true, &ctx.diurnal)
    {
        let samples: Vec<f64> = ctx
            .ft
            .sessions
            .iter()
            .filter(|s| {
                s.region == Region::NorthAmerica
                    && ctx.diurnal.is_peak(Region::NorthAmerica, s.start_hour())
            })
            .flat_map(|s| s.interarrival_samples())
            .filter(|&g| g > 0.0)
            .collect();
        if let (SideFit::Lognormal(b), SideFit::Pareto(t)) = (fit.body, fit.tail) {
            if let Ok(composite) = stats::dist::BodyTail::new(b, t, fit.split, fit.body_weight) {
                if let Ok(ks) = ks_one_sample(&samples, &composite) {
                    out.push_str(&compare(
                        "(c) interarrival vs lognormal‖Pareto",
                        "visually close (Fig A.1(c))",
                        &format!("D = {:.3} (n = {})", ks.statistic, samples.len()),
                    ));
                    // Also report the tail decade ratio: a Pareto signature.
                    let e = stats::Ecdf::new(samples).unwrap();
                    let r = e.ccdf(1_030.0) / e.ccdf(10_300.0).max(1e-9);
                    out.push_str(&compare(
                        "(c) ccdf(1030s)/ccdf(10300s)",
                        "10^0.904 = 8.0 (Pareto tail)",
                        &format!("{r:.1}"),
                    ));
                }
            }
        }
    }
    out
}
