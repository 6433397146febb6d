//! The ssj workload: six weighted transaction types.
//!
//! SPECpower_ssj2008 runs a warehouse-based transactional Java workload
//! derived from SPECjbb. Six transaction types with fixed mix probabilities
//! and different costs make up the load; the simulator uses the mix to
//! convert "transactions" into normalised work units and to inject the mix's
//! natural throughput variance.

/// One of the six ssj transaction types.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) enum TransactionType {
    /// Insert a new customer order.
    NewOrder,
    /// Process a customer payment.
    Payment,
    /// Query the status of an existing order.
    OrderStatus,
    /// Deliver a batch of pending orders.
    Delivery,
    /// Check warehouse stock levels.
    StockLevel,
    /// Generate a customer report.
    CustomerReport,
}

impl TransactionType {
    /// All six types, in the design document's order.
    pub const ALL: [TransactionType; 6] = [
        TransactionType::NewOrder,
        TransactionType::Payment,
        TransactionType::OrderStatus,
        TransactionType::Delivery,
        TransactionType::StockLevel,
        TransactionType::CustomerReport,
    ];

    /// Mix weight (relative issue probability) from the ssj design:
    /// new-order and payment dominate the mix.
    pub fn weight(self) -> f64 {
        match self {
            TransactionType::NewOrder => 10.0,
            TransactionType::Payment => 10.0,
            TransactionType::OrderStatus => 1.0,
            TransactionType::Delivery => 1.0,
            TransactionType::StockLevel => 1.0,
            TransactionType::CustomerReport => 10.0,
        }
    }

    /// Relative CPU cost of one transaction of this type (new-order ≡ 1.0).
    pub fn cost(self) -> f64 {
        match self {
            TransactionType::NewOrder => 1.0,
            TransactionType::Payment => 0.65,
            TransactionType::OrderStatus => 0.45,
            TransactionType::Delivery => 1.8,
            TransactionType::StockLevel => 1.1,
            TransactionType::CustomerReport => 1.35,
        }
    }
}

/// The transaction mix: the expected cost of one transaction drawn from
/// the mix, and that cost's variance.
#[derive(Clone, Debug)]
pub(crate) struct TransactionMix {
    expected_cost: f64,
    cost_variance: f64,
}

impl TransactionMix {
    /// The standard ssj mix.
    pub fn standard() -> TransactionMix {
        let total: f64 = TransactionType::ALL.iter().map(|t| t.weight()).sum();
        let expected_cost: f64 = TransactionType::ALL
            .iter()
            .map(|t| t.weight() / total * t.cost())
            .sum();
        let cost_variance: f64 = TransactionType::ALL
            .iter()
            .map(|t| {
                let p = t.weight() / total;
                let d = t.cost() - expected_cost;
                p * d * d
            })
            .sum();
        TransactionMix {
            expected_cost,
            cost_variance,
        }
    }

    /// Relative standard deviation of total work for a batch of `n`
    /// transactions (central-limit scaling) — the natural throughput noise
    /// the engine applies per interval.
    pub(crate) fn batch_work_rel_std(&self, n: f64) -> f64 {
        if n <= 0.0 {
            return 0.0;
        }
        (self.cost_variance.sqrt() / self.expected_cost) / n.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_cost_positive_and_sane() {
        let mix = TransactionMix::standard();
        assert!(mix.expected_cost > 0.5);
        assert!(mix.expected_cost < 2.0);
        assert!(mix.cost_variance > 0.0);
    }

    #[test]
    fn batch_noise_shrinks_with_batch_size() {
        let mix = TransactionMix::standard();
        let small = mix.batch_work_rel_std(100.0);
        let large = mix.batch_work_rel_std(1_000_000.0);
        assert!(small > large);
        assert!(large < 0.001);
        assert_eq!(mix.batch_work_rel_std(0.0), 0.0);
    }
}
