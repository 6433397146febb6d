//! Simulated power analyzer (the role PTDaemon + a Yokogawa plays in real
//! runs).
//!
//! The SPEC run rules require an accepted analyzer with a known accuracy
//! class, sampled at 1 Hz and averaged per interval. The simulated meter
//! applies relative Gaussian error per sample plus the instrument's
//! quantisation, and accumulates interval statistics.

use rand::Rng;
use spec_model::Watts;

/// A simulated wall-power meter.
#[derive(Clone, Debug)]
pub(crate) struct PowerMeter {
    /// Relative standard deviation of per-sample error (accuracy class).
    noise_rel: f64,
    /// Reading resolution in watts (e.g. 0.1 W).
    resolution: f64,
}

impl PowerMeter {
    /// Meter with the given accuracy class and 0.1 W resolution.
    pub fn new(noise_rel: f64) -> PowerMeter {
        PowerMeter {
            noise_rel,
            resolution: 0.1,
        }
    }

    /// One 1 Hz sample of `true_power`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, true_power: Watts) -> Watts {
        let noise = normal(rng) * self.noise_rel;
        let reading = true_power.value() * (1.0 + noise);
        let quantised = (reading / self.resolution).round() * self.resolution;
        Watts(quantised.max(0.0))
    }
}

/// Accumulates per-interval power statistics from meter samples.
#[derive(Clone, Debug, Default)]
pub(crate) struct IntervalPowerLog {
    sum: f64,
    n: u64,
    min: f64,
    max: f64,
}

impl IntervalPowerLog {
    /// Start an empty log.
    pub fn new() -> Self {
        IntervalPowerLog {
            sum: 0.0,
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, w: Watts) {
        self.sum += w.value();
        self.n += 1;
        self.min = self.min.min(w.value());
        self.max = self.max.max(w.value());
    }

    /// Interval average power; zero watts when empty.
    pub fn average(&self) -> Watts {
        if self.n == 0 {
            Watts(0.0)
        } else {
            Watts(self.sum / self.n as f64)
        }
    }

    /// Lowest sample seen.
    pub fn minimum(&self) -> Option<Watts> {
        (self.n > 0).then_some(Watts(self.min))
    }

    /// Highest sample seen.
    pub fn maximum(&self) -> Option<Watts> {
        (self.n > 0).then_some(Watts(self.max))
    }
}

/// Standard normal variate via Box–Muller.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_center_on_truth() {
        let meter = PowerMeter::new(0.01);
        let mut rng = StdRng::seed_from_u64(3);
        let mut log = IntervalPowerLog::new();
        for _ in 0..5000 {
            log.record(meter.sample(&mut rng, Watts(250.0)));
        }
        let avg = log.average().value();
        assert!((avg - 250.0).abs() < 0.5, "avg {avg}");
        assert!(log.minimum().unwrap().value() < avg);
        assert!(log.maximum().unwrap().value() > avg);
    }

    #[test]
    fn zero_noise_meter_quantises_only() {
        let meter = PowerMeter::new(0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let s = meter.sample(&mut rng, Watts(123.456));
        assert!((s.value() - 123.5).abs() < 1e-9);
    }

    #[test]
    fn readings_never_negative() {
        let meter = PowerMeter::new(2.0); // absurd accuracy class
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(meter.sample(&mut rng, Watts(1.0)).value() >= 0.0);
        }
    }

    #[test]
    fn empty_log_defaults() {
        let log = IntervalPowerLog::new();
        assert_eq!(log.average(), Watts(0.0));
        assert_eq!(log.minimum(), None);
        assert_eq!(log.maximum(), None);
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = normal(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
