//! The benchmark engine: a discrete-time stochastic queueing simulation.
//!
//! The simulation advances in one-second steps — the power meter's sampling
//! period. Each step draws Poisson transaction arrivals for the current
//! target rate, lets a DVFS governor pick a frequency, serves work up to the
//! frequency-dependent capacity, derives the operating point (utilisation,
//! parked cores, package residency) and samples the mechanistic power model
//! through the simulated meter.

use rand::rngs::StdRng;
use spec_model::{SystemConfig, Watts};

use crate::config::{Settings, SutModel};
use crate::meter::{normal, IntervalPowerLog, PowerMeter};
use crate::poisson::PoissonSampler;
use crate::power::{dc_power, wall_power, OperatingPoint};
use crate::workload::TransactionMix;

/// Outcome of one measurement interval.
#[derive(Clone, Debug)]
pub struct IntervalResult {
    /// Length of the interval in simulated seconds.
    pub seconds: u32,
    /// Total transactions completed.
    pub ops_total: f64,
    /// Mean throughput over the interval (ops/s).
    pub ops_rate: f64,
    /// Interval-average wall power.
    pub avg_power: Watts,
    /// Lowest 1 Hz power sample.
    pub min_power: Watts,
    /// Highest 1 Hz power sample.
    pub max_power: Watts,
    /// Mean utilisation across seconds.
    pub avg_utilization: f64,
    /// Mean frequency fraction across seconds.
    pub avg_freq_frac: f64,
}

/// The load offered to the SUT for one interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum OfferedLoad {
    /// Calibration: saturate the system (arrivals always exceed capacity).
    Saturating,
    /// Graduated level: Poisson arrivals at this mean rate (ops/s).
    Rate(f64),
    /// Active idle: zero transactions.
    Idle,
}

/// The benchmark engine bound to one system + behavioural model.
pub(crate) struct Engine<'a> {
    system: &'a SystemConfig,
    model: &'a SutModel,
    settings: &'a Settings,
    meter: PowerMeter,
    mix: TransactionMix,
    rng: StdRng,
}

impl<'a> Engine<'a> {
    /// Create an engine with its own deterministic random stream.
    pub fn new(
        system: &'a SystemConfig,
        model: &'a SutModel,
        settings: &'a Settings,
        rng: StdRng,
    ) -> Engine<'a> {
        Engine {
            system,
            model,
            settings,
            meter: PowerMeter::new(settings.meter_noise_rel),
            mix: TransactionMix::standard(),
            rng,
        }
    }

    /// Throughput capacity (ops/s) at a frequency fraction of nominal.
    pub(crate) fn capacity_at(&self, freq_frac: f64) -> f64 {
        self.model.perf.peak_rate(
            self.system.total_cores(),
            self.system.cpu.threads_per_core,
            self.system.cpu.nominal * freq_frac,
        )
    }

    /// The all-core frequency fraction used when saturated (turbo).
    pub fn turbo_frac(&self) -> f64 {
        1.0 + self.model.power.turbo_headroom
    }

    /// Simulate one measurement interval under the given offered load.
    ///
    /// Intervals are far too frequent for one span each (an analyze run
    /// simulates tens of thousands and would flush every other span out of
    /// the bounded trace ring), so the per-interval cost when tracing is
    /// just the `ssj.intervals` counter and the `ssj.interval_us` timing
    /// histogram; [`crate::simulate_run`] spans the whole benchmark run.
    pub(crate) fn run_interval(&mut self, load: OfferedLoad) -> IntervalResult {
        let timer = spec_obs::enabled().then(std::time::Instant::now);
        let seconds = self.settings.interval_seconds.max(1);
        // Per-interval software jitter (JIT/GC state) applied to capacity.
        let jitter = 1.0 + normal(&mut self.rng) * self.settings.throughput_noise_rel;
        let jitter = jitter.clamp(0.9, 1.1);

        let mut backlog = 0.0_f64;
        let mut ops_total = 0.0_f64;
        let mut power_log = IntervalPowerLog::new();
        let mut util_sum = 0.0;
        let mut freq_sum = 0.0;

        let idle_residency = self
            .model
            .power
            .idle_pkg_residency(self.system.total_threads());

        // Batched per-interval sampling: the arrival rate is fixed for the
        // whole interval, so the Poisson constants are computed once here
        // and amortised over the interval's seconds.
        let arrivals = match load {
            OfferedLoad::Rate(rate) => Some(PoissonSampler::new(rate)),
            _ => None,
        };

        for _ in 0..seconds {
            let (served, op) = match load {
                OfferedLoad::Idle => {
                    // Residency fluctuates slightly with the background-task
                    // Poisson process.
                    let wobble = 1.0 + normal(&mut self.rng) * 0.02;
                    let residency = (idle_residency * wobble).clamp(0.0, 1.0);
                    (
                        0.0,
                        OperatingPoint::active_idle(self.model.power.dvfs_floor, residency),
                    )
                }
                OfferedLoad::Saturating => {
                    let freq = self.turbo_frac();
                    let capacity = self.capacity_at(freq) * jitter;
                    let served = capacity * (1.0 + self.per_second_noise(capacity));
                    (served.max(0.0), OperatingPoint::full_load(freq))
                }
                OfferedLoad::Rate(rate) => {
                    let sampler = arrivals.expect("sampler built for Rate load");
                    backlog += sampler.sample(&mut self.rng);
                    // Governor: pick the lowest frequency whose capacity
                    // covers the demand with 5 % headroom.
                    let nominal_capacity = self.capacity_at(1.0) * jitter;
                    let needed = (backlog.min(rate * 2.0) * 1.05) / nominal_capacity;
                    let freq = needed.clamp(self.model.power.dvfs_floor, self.turbo_frac());
                    let capacity = nominal_capacity * freq;
                    let served = backlog.min(capacity);
                    backlog -= served;
                    let util = if capacity > 0.0 { served / capacity } else { 0.0 };
                    // The OS consolidates work and parks surplus cores, but
                    // imperfectly: some spread keeps extra cores awake.
                    let active = (util * 1.25 + 0.03).clamp(util.max(0.02), 1.0);
                    (
                        served,
                        OperatingPoint {
                            utilization: util,
                            freq_frac: freq,
                            active_core_fraction: active,
                            pkg_awake_fraction: 1.0,
                        },
                    )
                }
            };

            ops_total += served;
            util_sum += op.utilization;
            freq_sum += op.freq_frac;

            let dc = dc_power(&self.model.power, self.system, &op);
            let wall = wall_power(&self.model.power, self.system, dc);
            power_log.record(self.meter.sample(&mut self.rng, wall));
        }

        if let Some(t) = timer {
            spec_obs::count("ssj.intervals", 1);
            spec_obs::observe_us("ssj.interval_us", t.elapsed().as_micros() as u64);
        }
        IntervalResult {
            seconds,
            ops_total,
            ops_rate: ops_total / seconds as f64,
            avg_power: power_log.average(),
            min_power: power_log.minimum().unwrap_or(Watts(0.0)),
            max_power: power_log.maximum().unwrap_or(Watts(0.0)),
            avg_utilization: util_sum / seconds as f64,
            avg_freq_frac: freq_sum / seconds as f64,
        }
    }

    /// Relative noise for a served batch of roughly `n` transactions: the
    /// transaction mix's central-limit variation.
    fn per_second_noise(&mut self, n: f64) -> f64 {
        let rel = self.mix.batch_work_rel_std(n.max(1.0)).min(0.05);
        normal(&mut self.rng) * rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{reference_sut, Settings};
    use rand::SeedableRng;
    use spec_model::{Cpu, JvmInfo, Megahertz, OsInfo};

    fn test_system() -> SystemConfig {
        SystemConfig {
            manufacturer: "Test".into(),
            model: "T1000".into(),
            form_factor: "2U".into(),
            nodes: 1,
            chips: 2,
            cpu: Cpu {
                name: "Intel Xeon Test".into(),
                microarchitecture: "TestLake".into(),
                nominal: Megahertz::from_ghz(2.5),
                max_boost: Megahertz::from_ghz(3.5),
                cores_per_chip: 24,
                threads_per_core: 2,
                tdp: Watts(180.0),
                vector_bits: 512,
            },
            memory_gb: 256,
            dimm_count: 16,
            psu_rating: Watts(1100.0),
            psu_count: 1,
            os: OsInfo::new("Windows Server 2019"),
            jvm: JvmInfo {
                vendor: "Oracle".into(),
                version: "HotSpot 11".into(),
            },
            jvm_instances: 4,
        }
    }

    fn engine_with<'a>(
        sys: &'a SystemConfig,
        model: &'a SutModel,
        settings: &'a Settings,
        seed: u64,
    ) -> Engine<'a> {
        Engine::new(sys, model, settings, StdRng::seed_from_u64(seed))
    }

    #[test]
    fn saturating_interval_hits_capacity() {
        let sys = test_system();
        let model = reference_sut();
        let settings = Settings::fast();
        let mut engine = engine_with(&sys, &model, &settings, 1);
        let r = engine.run_interval(OfferedLoad::Saturating);
        let capacity = engine.capacity_at(engine.turbo_frac());
        assert!((r.ops_rate / capacity - 1.0).abs() < 0.05);
        assert!(r.avg_utilization > 0.99);
        assert!(r.avg_freq_frac > 1.0, "turbo engaged at saturation");
    }

    #[test]
    fn target_rate_is_tracked() {
        let sys = test_system();
        let model = reference_sut();
        let settings = Settings::fast();
        let mut engine = engine_with(&sys, &model, &settings, 2);
        let max = engine.capacity_at(engine.turbo_frac());
        for frac in [0.3, 0.7] {
            let r = engine.run_interval(OfferedLoad::Rate(max * frac));
            let ratio = r.ops_rate / (max * frac);
            assert!(
                (ratio - 1.0).abs() < 0.03,
                "target {frac}: achieved ratio {ratio}"
            );
        }
    }

    #[test]
    fn power_monotone_in_load() {
        let sys = test_system();
        let model = reference_sut();
        let settings = Settings::fast();
        let mut engine = engine_with(&sys, &model, &settings, 3);
        let max = engine.capacity_at(engine.turbo_frac());
        let mut last = 0.0;
        let mut levels = vec![engine.run_interval(OfferedLoad::Idle).avg_power.value()];
        for frac in [0.1, 0.4, 0.7] {
            levels.push(
                engine
                    .run_interval(OfferedLoad::Rate(max * frac))
                    .avg_power
                    .value(),
            );
        }
        levels.push(
            engine
                .run_interval(OfferedLoad::Saturating)
                .avg_power
                .value(),
        );
        for p in levels {
            assert!(p > last, "power rises with load: {p} after {last}");
            last = p;
        }
    }

    #[test]
    fn idle_interval_does_no_work() {
        let sys = test_system();
        let model = reference_sut();
        let settings = Settings::fast();
        let mut engine = engine_with(&sys, &model, &settings, 4);
        let r = engine.run_interval(OfferedLoad::Idle);
        assert_eq!(r.ops_total, 0.0);
        assert!(r.avg_power.value() > 0.0, "idle still draws power");
        assert_eq!(r.avg_utilization, 0.0);
    }

    #[test]
    fn dvfs_lowers_frequency_at_partial_load() {
        let sys = test_system();
        let model = reference_sut();
        let settings = Settings::fast();
        let mut engine = engine_with(&sys, &model, &settings, 5);
        let max = engine.capacity_at(engine.turbo_frac());
        let low = engine.run_interval(OfferedLoad::Rate(max * 0.2));
        let high = engine.run_interval(OfferedLoad::Rate(max * 0.9));
        assert!(low.avg_freq_frac < high.avg_freq_frac);
        assert!(low.avg_freq_frac >= model.power.dvfs_floor - 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let sys = test_system();
        let model = reference_sut();
        let settings = Settings::fast();
        let mut a = engine_with(&sys, &model, &settings, 42);
        let mut b = engine_with(&sys, &model, &settings, 42);
        let ra = a.run_interval(OfferedLoad::Saturating);
        let rb = b.run_interval(OfferedLoad::Saturating);
        assert_eq!(ra.ops_total, rb.ops_total);
        assert_eq!(ra.avg_power, rb.avg_power);
    }
}
