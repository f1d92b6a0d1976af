//! Function-symbol semantics.
//!
//! `add`, `sub`, `min`, `max` get their arithmetic meaning (Example 3's
//! dynamic program really computes a min-plus recurrence). Every other
//! symbol (`f`, `g`, `w`, …) is an *uninterpreted* function realized as a
//! deterministic hash mix of its name and arguments: injectivity is not
//! guaranteed, but any single changed argument changes the result with
//! overwhelming probability, which is what the equivalence oracle needs.

/// Applies a function symbol to evaluated arguments.
pub fn apply(name: &str, args: &[i64]) -> i64 {
    Symbol::resolve(name).apply(args)
}

/// A function symbol resolved once, so that a lowered statement body
/// applies it without matching or hashing its name on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    /// Wrapping sum of any number of arguments.
    Add,
    /// Wrapping difference of exactly two arguments.
    Sub,
    /// Minimum of at least one argument.
    Min,
    /// Maximum of at least one argument.
    Max,
    /// The single argument itself.
    Id,
    /// An uninterpreted symbol: a hash mix of its name and arguments.
    Mixed(Mixer),
}

impl Symbol {
    /// The semantics of the symbol called `name`.
    pub fn resolve(name: &str) -> Symbol {
        match name {
            "add" => Symbol::Add,
            "sub" => Symbol::Sub,
            "min" => Symbol::Min,
            "max" => Symbol::Max,
            "id" => Symbol::Id,
            _ => Symbol::Mixed(Mixer::new(0x94d0_49bb_1331_11eb, name)),
        }
    }

    /// Whether the symbol accepts `argc` arguments (applying it to any
    /// other count panics).
    pub fn accepts(self, argc: usize) -> bool {
        match self {
            Symbol::Add | Symbol::Mixed(_) => true,
            Symbol::Sub => argc == 2,
            Symbol::Min | Symbol::Max => argc > 0,
            Symbol::Id => argc == 1,
        }
    }

    /// Applies the symbol to evaluated arguments.
    pub fn apply(self, args: &[i64]) -> i64 {
        match self {
            Symbol::Add => args.iter().fold(0i64, |a, &b| a.wrapping_add(b)),
            Symbol::Sub => match args {
                [a, b] => a.wrapping_sub(*b),
                _ => panic!("sub expects 2 arguments, got {}", args.len()),
            },
            Symbol::Min => args.iter().copied().min().expect("min of no arguments"),
            Symbol::Max => args.iter().copied().max().expect("max of no arguments"),
            Symbol::Id => match args {
                [a] => *a,
                _ => panic!("id expects 1 argument"),
            },
            Symbol::Mixed(m) => m.mix(args),
        }
    }
}

/// Deterministic initial value of a never-written array cell (a model of
/// the input data / boundary conditions).
pub fn initial(array: &str, index: &[i64]) -> i64 {
    Mixer::initial(array).mix(index)
}

/// Marker value for reading a cell before any write reached it under the
/// evaluated schedule (only possible when the schedule or the occupancy
/// vector is invalid).
pub fn missing(array: &str, index: &[i64]) -> i64 {
    Mixer::missing(array).mix(index)
}

/// The hash state after a seed and a name: mixing arguments into it
/// gives the same value as mixing seed, name and arguments at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mixer(u64);

impl Mixer {
    fn new(seed: u64, name: &str) -> Self {
        let mut h = seed;
        for b in name.as_bytes() {
            h = splitmix(h ^ u64::from(*b));
        }
        Mixer(h)
    }

    /// The mixer of [`initial`] values of `array`.
    pub fn initial(array: &str) -> Self {
        Mixer::new(0x9e37_79b9_7f4a_7c15, array)
    }

    /// The mixer of [`missing`] markers of `array`.
    pub fn missing(array: &str) -> Self {
        Mixer::new(0xbf58_476d_1ce4_e5b9, array)
    }

    /// Mixes `args` into the state.
    pub fn mix(self, args: &[i64]) -> i64 {
        let mut h = self.0;
        for &a in args {
            h = splitmix(h ^ (a as u64));
        }
        h as i64
    }
}

/// splitmix64 finalizer — fast avalanche mixing.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_symbols() {
        assert_eq!(apply("add", &[1, 2, 3]), 6);
        assert_eq!(apply("sub", &[5, 3]), 2);
        assert_eq!(apply("min", &[4, -2, 9]), -2);
        assert_eq!(apply("max", &[4, -2, 9]), 9);
        assert_eq!(apply("id", &[7]), 7);
    }

    #[test]
    fn uninterpreted_symbols_are_deterministic_and_sensitive() {
        let a = apply("f", &[1, 2, 3]);
        assert_eq!(a, apply("f", &[1, 2, 3]));
        assert_ne!(a, apply("f", &[1, 2, 4]));
        assert_ne!(a, apply("f", &[2, 1, 3]));
        assert_ne!(a, apply("g", &[1, 2, 3]));
        assert_ne!(a, apply("f", &[1, 2]));
    }

    #[test]
    fn initial_and_missing_differ() {
        assert_ne!(initial("A", &[1, 2]), missing("A", &[1, 2]));
        assert_ne!(initial("A", &[1, 2]), initial("A", &[2, 1]));
        assert_ne!(initial("A", &[1, 2]), initial("B", &[1, 2]));
        assert_eq!(initial("A", &[0]), initial("A", &[0]));
    }

    #[test]
    #[should_panic(expected = "sub expects 2")]
    fn sub_arity_checked() {
        let _ = apply("sub", &[1, 2, 3]);
    }
}
