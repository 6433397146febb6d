//! Feature extraction: runs → a [`tinyframe::Frame`] with one row per run.
//!
//! This is the tabular backbone of every figure and of the §IV correlation
//! exploration. Missing/derived-undefined values become `NaN`.

use spec_model::{LoadLevel, RunResult};
use tinyframe::{Column, Frame, SegFrame};

/// Column names produced by [`runs_to_frame`], in order.
pub const FEATURE_COLUMNS: [&str; 24] = [
    "id",
    "year",
    "frac_year",
    "vendor",
    "os_family",
    "nodes",
    "chips",
    "cores_per_chip",
    "total_cores",
    "total_threads",
    "nominal_ghz",
    "boost_ghz",
    "tdp_w",
    "memory_gb",
    "dimms",
    "psu_w",
    "jvm_instances",
    "full_power_w",
    "per_socket_w",
    "idle_w",
    "idle_fraction",
    "overall_eff",
    "extrap_idle_w",
    "extrap_quotient",
];

/// Build the feature frame. Adds four extra columns `rel_eff_60` …
/// `rel_eff_90` beyond [`FEATURE_COLUMNS`].
pub fn runs_to_frame(runs: &[RunResult]) -> Frame {
    let n = runs.len();
    let mut id = Vec::with_capacity(n);
    let mut year = Vec::with_capacity(n);
    let mut frac_year = Vec::with_capacity(n);
    let mut vendor = Vec::with_capacity(n);
    let mut os_family = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    let mut chips = Vec::with_capacity(n);
    let mut cores_per_chip = Vec::with_capacity(n);
    let mut total_cores = Vec::with_capacity(n);
    let mut total_threads = Vec::with_capacity(n);
    let mut nominal_ghz = Vec::with_capacity(n);
    let mut boost_ghz = Vec::with_capacity(n);
    let mut tdp_w = Vec::with_capacity(n);
    let mut memory_gb = Vec::with_capacity(n);
    let mut dimms = Vec::with_capacity(n);
    let mut psu_w = Vec::with_capacity(n);
    let mut jvm_instances = Vec::with_capacity(n);
    let mut full_power = Vec::with_capacity(n);
    let mut per_socket = Vec::with_capacity(n);
    let mut idle_w = Vec::with_capacity(n);
    let mut idle_fraction = Vec::with_capacity(n);
    let mut overall_eff = Vec::with_capacity(n);
    let mut extrap_idle = Vec::with_capacity(n);
    let mut extrap_quotient = Vec::with_capacity(n);
    let mut rel: [Vec<f64>; 4] = [
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    ];

    let nan = f64::NAN;
    for run in runs {
        let sys = &run.system;
        id.push(run.id as i64);
        year.push(run.hw_year() as i64);
        frac_year.push(run.dates.hw_available.fractional_year());
        // Categorical columns intern to 4-byte tokens: the handful of
        // distinct labels in a 100k-run corpus dedup to one allocation
        // each, and group-bys over them compare tokens, not strings.
        vendor.push(spec_intern::intern(sys.cpu.vendor().label()));
        os_family.push(spec_intern::intern(sys.os.family().label()));
        nodes.push(sys.nodes as i64);
        chips.push(sys.chips as i64);
        cores_per_chip.push(sys.cpu.cores_per_chip as i64);
        total_cores.push(sys.total_cores() as i64);
        total_threads.push(sys.total_threads() as i64);
        nominal_ghz.push(sys.cpu.nominal.ghz());
        boost_ghz.push(sys.cpu.max_boost.ghz());
        tdp_w.push(sys.cpu.tdp.value());
        memory_gb.push(sys.memory_gb as i64);
        dimms.push(sys.dimm_count as i64);
        psu_w.push(sys.psu_rating.value());
        jvm_instances.push(sys.jvm_instances as i64);
        full_power.push(
            run.power_at(LoadLevel::Percent(100))
                .map_or(nan, |w| w.value()),
        );
        per_socket.push(run.per_socket_full_load_power().map_or(nan, |w| w.value()));
        idle_w.push(
            run.power_at(LoadLevel::ActiveIdle)
                .map_or(nan, |w| w.value()),
        );
        idle_fraction.push(run.idle_fraction().unwrap_or(nan));
        overall_eff.push(run.overall_efficiency().value());
        extrap_idle.push(run.extrapolated_idle_power().map_or(nan, |w| w.value()));
        extrap_quotient.push(run.extrapolated_idle_quotient().unwrap_or(nan));
        for (slot, pct) in rel.iter_mut().zip([60u8, 70, 80, 90]) {
            slot.push(run.relative_efficiency(pct).unwrap_or(nan));
        }
    }

    let [rel60, rel70, rel80, rel90] = rel;
    Frame::from_columns([
        ("id", Column::from(id)),
        ("year", Column::from(year)),
        ("frac_year", Column::from(frac_year)),
        ("vendor", Column::from(vendor)),
        ("os_family", Column::from(os_family)),
        ("nodes", Column::from(nodes)),
        ("chips", Column::from(chips)),
        ("cores_per_chip", Column::from(cores_per_chip)),
        ("total_cores", Column::from(total_cores)),
        ("total_threads", Column::from(total_threads)),
        ("nominal_ghz", Column::from(nominal_ghz)),
        ("boost_ghz", Column::from(boost_ghz)),
        ("tdp_w", Column::from(tdp_w)),
        ("memory_gb", Column::from(memory_gb)),
        ("dimms", Column::from(dimms)),
        ("psu_w", Column::from(psu_w)),
        ("jvm_instances", Column::from(jvm_instances)),
        ("full_power_w", Column::from(full_power)),
        ("per_socket_w", Column::from(per_socket)),
        ("idle_w", Column::from(idle_w)),
        ("idle_fraction", Column::from(idle_fraction)),
        ("overall_eff", Column::from(overall_eff)),
        ("extrap_idle_w", Column::from(extrap_idle)),
        ("extrap_quotient", Column::from(extrap_quotient)),
        ("rel_eff_60", Column::from(rel60)),
        ("rel_eff_70", Column::from(rel70)),
        ("rel_eff_80", Column::from(rel80)),
        ("rel_eff_90", Column::from(rel90)),
    ])
    .expect("columns share length by construction")
}

/// Build the feature table as a segmented store: parallel shards fill
/// private segment arenas (each a run of `runs_to_frame` chunks at
/// `segment_rows` granularity) and the merge splices them in shard order,
/// so row order — and therefore every downstream aggregate — is identical
/// to `runs_to_frame(runs)` for any thread count.
pub fn runs_to_seg_frame(runs: &[RunResult], segment_rows: usize) -> SegFrame {
    let segment_rows = segment_rows.max(1);
    let mut seg = SegFrame::new(segment_rows);
    if runs.is_empty() {
        seg.append_frame(runs_to_frame(&[]))
            .expect("fresh store adopts the feature schema");
        return seg;
    }
    let shards: Vec<&[RunResult]> = runs.chunks(tinypool::chunk_for(runs.len())).collect();
    let arenas: Vec<Vec<Frame>> = tinypool::parallel_map(&shards, |shard| {
        shard.chunks(segment_rows).map(runs_to_frame).collect()
    });
    for arena in arenas {
        for frame in arena {
            seg.push_sealed(frame).expect("uniform feature schema");
        }
    }
    seg
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::linear_test_run;

    #[test]
    fn frame_shape() {
        let runs: Vec<RunResult> = (0..4).map(|i| linear_test_run(i, 1e6, 60.0, 300.0)).collect();
        let f = runs_to_frame(&runs);
        assert_eq!(f.n_rows(), 4);
        assert_eq!(f.n_cols(), FEATURE_COLUMNS.len() + 4);
        for name in FEATURE_COLUMNS {
            assert!(f.column(name).is_ok(), "missing column {name}");
        }
    }

    #[test]
    fn derived_values_match_model() {
        let run = linear_test_run(9, 1e6, 60.0, 300.0);
        let f = runs_to_frame(std::slice::from_ref(&run));
        assert_eq!(f.i64s("year").unwrap()[0], 2020);
        assert_eq!(f.syms("vendor").unwrap()[0].resolve(), "Intel");
        assert_eq!(f.syms("os_family").unwrap()[0].resolve(), "Windows");
        assert!((f.f64s("per_socket_w").unwrap()[0] - 150.0).abs() < 1e-9);
        assert!((f.f64s("idle_fraction").unwrap()[0] - 0.2).abs() < 1e-12);
        assert!((f.f64s("extrap_quotient").unwrap()[0] - 1.0).abs() < 1e-9);
        assert!((f.f64s("rel_eff_70").unwrap()[0]
            - run.relative_efficiency(70).unwrap())
        .abs()
            < 1e-12);
    }

    #[test]
    fn empty_input() {
        let f = runs_to_frame(&[]);
        assert_eq!(f.n_rows(), 0);
        assert_eq!(f.n_cols(), FEATURE_COLUMNS.len() + 4);
    }

    #[test]
    fn groupable_by_year_and_vendor() {
        let runs: Vec<RunResult> = (0..6).map(|i| linear_test_run(i, 1e6, 60.0, 300.0)).collect();
        let f = runs_to_frame(&runs);
        let g = f.group_by(&["year", "vendor"]).unwrap();
        assert_eq!(g.len(), 1);
    }
}
