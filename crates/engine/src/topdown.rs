//! Top-Down cycle accounting (Yasin, ISPASS'14; paper §2.2).
//!
//! Execution cycles are split into four categories: *retiring* (useful
//! work), *fetch bound* (instruction cache/TLB stalls), *bad speculation*
//! (BTB misses and branch mispredictions — pipeline flushes), and *back-end
//! bound* (data stalls). Fetch bound + bad speculation together are the
//! "front-end stalls" of the paper's Fig. 1.

/// Cycle category (paper Fig. 1 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Useful retirement slots.
    Retiring,
    /// Instruction delivery stalls.
    FetchBound,
    /// Pipeline flushes from BTB misses and mispredictions.
    BadSpeculation,
    /// Data-side stalls.
    BackendBound,
}

impl Category {
    /// All categories in display order.
    pub const ALL: [Category; 4] = [
        Category::Retiring,
        Category::FetchBound,
        Category::BadSpeculation,
        Category::BackendBound,
    ];
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Retiring => write!(f, "Retiring"),
            Category::FetchBound => write!(f, "Fetch Bound"),
            Category::BadSpeculation => write!(f, "Bad Speculation"),
            Category::BackendBound => write!(f, "Backend Bound"),
        }
    }
}

/// Accumulated per-category cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TopDown {
    /// Useful retirement cycles.
    pub retiring: f64,
    /// Instruction-delivery stall cycles.
    pub fetch_bound: f64,
    /// Flush/recovery cycles.
    pub bad_speculation: f64,
    /// Data-stall cycles.
    pub backend_bound: f64,
}

impl TopDown {
    /// Adds cycles to a category.
    pub fn add(&mut self, category: Category, cycles: f64) {
        debug_assert!(cycles >= 0.0, "negative cycles");
        match category {
            Category::Retiring => self.retiring += cycles,
            Category::FetchBound => self.fetch_bound += cycles,
            Category::BadSpeculation => self.bad_speculation += cycles,
            Category::BackendBound => self.backend_bound += cycles,
        }
    }

    /// Cycles in a category.
    pub fn get(&self, category: Category) -> f64 {
        match category {
            Category::Retiring => self.retiring,
            Category::FetchBound => self.fetch_bound,
            Category::BadSpeculation => self.bad_speculation,
            Category::BackendBound => self.backend_bound,
        }
    }

    /// Total cycles across categories.
    pub fn total(&self) -> f64 {
        self.retiring + self.fetch_bound + self.bad_speculation + self.backend_bound
    }

    /// Front-end stall cycles (fetch bound + bad speculation, §2.2).
    pub fn front_end(&self) -> f64 {
        self.fetch_bound + self.bad_speculation
    }

    /// Merges another accumulation into this one.
    pub fn merge(&mut self, other: &TopDown) {
        self.retiring += other.retiring;
        self.fetch_bound += other.fetch_bound;
        self.bad_speculation += other.bad_speculation;
        self.backend_bound += other.backend_bound;
    }

    /// Scales all categories (averaging across invocations).
    pub fn scaled(&self, factor: f64) -> TopDown {
        TopDown {
            retiring: self.retiring * factor,
            fetch_bound: self.fetch_bound * factor,
            bad_speculation: self.bad_speculation * factor,
            backend_bound: self.backend_bound * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut t = TopDown::default();
        t.add(Category::Retiring, 10.0);
        t.add(Category::FetchBound, 5.0);
        t.add(Category::BadSpeculation, 3.0);
        t.add(Category::BackendBound, 2.0);
        assert_eq!(t.total(), 20.0);
        assert_eq!(t.front_end(), 8.0);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = TopDown::default();
        a.add(Category::Retiring, 4.0);
        let mut b = TopDown::default();
        b.add(Category::Retiring, 6.0);
        a.merge(&b);
        assert_eq!(a.retiring, 10.0);
        assert_eq!(a.scaled(0.5).retiring, 5.0);
    }

    #[test]
    fn categories_display() {
        for c in Category::ALL {
            assert!(!format!("{c}").is_empty());
        }
    }
}
