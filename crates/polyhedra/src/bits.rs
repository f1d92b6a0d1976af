//! A fixed-width bitset over `0..n`: the saturation sets of the DD and
//! the generator sets of faces in [`crate::param`].

/// A set of indices below a fixed bound, one bit each.
///
/// A set over at most 64 members is one word, stored inline; wider sets
/// use heap words. Every set the paper's examples and the fuzz corpus
/// build is at most 35 wide, so the heap side serves larger programs
/// only (EXPERIMENTS.md, "Vertices without validity-domain polyhedra").
///
/// Every operation on two sets takes them at the same bound. Bits at or
/// beyond the bound are always zero, so equal sets of one bound have
/// equal representations (`Eq` and `Hash` are those of the words).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Bits {
    /// A set over at most 64 members.
    Inline(u64),
    /// A wider set: `n.div_ceil(64)` words.
    Heap(Box<[u64]>),
}

impl Bits {
    /// The empty set over `0..n`.
    pub fn empty(n: usize) -> Self {
        if n <= 64 {
            Bits::Inline(0)
        } else {
            Bits::Heap(vec![0; n.div_ceil(64)].into_boxed_slice())
        }
    }

    /// The set of all of `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = Bits::empty(n);
        s.fill(n);
        s
    }

    fn words(&self) -> &[u64] {
        match self {
            Bits::Inline(w) => std::slice::from_ref(w),
            Bits::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Bits::Inline(w) => std::slice::from_mut(w),
            Bits::Heap(w) => w,
        }
    }

    /// Adds `k`.
    pub fn insert(&mut self, k: usize) {
        self.words_mut()[k / 64] |= 1 << (k % 64);
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `k` is in the set.
    pub fn contains(&self, k: usize) -> bool {
        self.words()[k / 64] & (1 << (k % 64)) != 0
    }

    /// Whether `self ∩ other` is a subset of `within` (without forming
    /// the intersection).
    pub fn meet_is_subset_of(&self, other: &Bits, within: &Bits) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .zip(within.words())
            .all(|((a, b), w)| a & b & !w == 0)
    }

    /// `self ∩ other`.
    pub fn and(&self, other: &Bits) -> Bits {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Makes `self` the set `a ∩ b` of the same width, in place.
    pub fn assign_and(&mut self, a: &Bits, b: &Bits) {
        for ((x, y), z) in self.words_mut().iter_mut().zip(a.words()).zip(b.words()) {
            *x = y & z;
        }
    }

    /// Makes `self` the set of all of `0..n`, in place; `n` is the bound
    /// it was built with.
    pub fn fill(&mut self, n: usize) {
        debug_assert!(
            match self {
                Bits::Inline(_) => n <= 64,
                Bits::Heap(w) => w.len() == n.div_ceil(64),
            },
            "bound {n} is not the set's"
        );
        for (w, x) in self.words_mut().iter_mut().enumerate() {
            *x = match n.saturating_sub(64 * w) {
                0 => 0,
                rest @ 1..=63 => (1 << rest) - 1,
                _ => u64::MAX,
            };
        }
    }

    /// Keeps only the elements of `other`.
    pub fn intersect_with(&mut self, other: &Bits) {
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// The elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    64 * w + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeSet;
    use std::hash::{Hash, Hasher};

    fn hash_of(b: &Bits) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// `b` holds exactly `model`, and agrees with every other set built
    /// for the same members on `Eq` and `Hash`.
    fn assert_models(b: &Bits, model: &BTreeSet<usize>, n: usize, what: &str) {
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>(),
            "{what}"
        );
        assert_eq!(b.len(), model.len(), "{what}: len");
        for k in 0..n {
            assert_eq!(b.contains(k), model.contains(&k), "{what}: contains({k})");
        }
        let mut rebuilt = Bits::empty(n);
        for &k in model.iter().rev() {
            rebuilt.insert(k);
        }
        assert_eq!(b, &rebuilt, "{what}: equal sets, different builds");
        assert_eq!(hash_of(b), hash_of(&rebuilt), "{what}: hash");
    }

    /// A random subset of `0..n`, as a set and as its model.
    fn random_set(rng: &mut aov_support::Rng, n: usize) -> (Bits, BTreeSet<usize>) {
        let (mut b, mut model) = (Bits::empty(n), BTreeSet::new());
        if n > 0 {
            let density = rng.u64_below(4);
            for _ in 0..rng.usize_in(0, 2 * n) {
                let k = rng.usize_in(0, n - 1);
                if rng.u64_below(4) <= density {
                    b.insert(k);
                    model.insert(k);
                }
            }
        }
        (b, model)
    }

    /// Every operation against a `BTreeSet` model, on both sides of the
    /// inline/heap boundary.
    #[test]
    fn operations_match_a_set_model() {
        let mut rng = aov_support::Rng::new(5);
        for n in [0, 1, 63, 64, 65, 127, 128, 129, 200] {
            let everything: BTreeSet<usize> = (0..n).collect();
            assert_models(&Bits::empty(n), &BTreeSet::new(), n, &format!("empty({n})"));
            assert_models(&Bits::full(n), &everything, n, &format!("full({n})"));
            for case in 0..40 {
                let what = format!("width {n}, case {case}");
                let (a, ma) = random_set(&mut rng, n);
                let (b, mb) = random_set(&mut rng, n);
                let (w, mw) = random_set(&mut rng, n);
                assert_models(&a, &ma, n, &what);
                let meet: BTreeSet<usize> = ma.intersection(&mb).copied().collect();
                assert_models(&a.and(&b), &meet, n, &format!("{what}: and"));
                let mut c = a.clone();
                c.intersect_with(&b);
                assert_models(&c, &meet, n, &format!("{what}: intersect_with"));
                let mut d = w.clone();
                d.assign_and(&a, &b);
                assert_models(&d, &meet, n, &format!("{what}: assign_and"));
                // Equal sets from different sequences: `b ∩ a` built
                // fresh, `a ∩ b` written over a third set.
                assert_eq!(b.and(&a), d, "{what}: commuted");
                assert_eq!(hash_of(&b.and(&a)), hash_of(&d), "{what}: commuted hash");
                assert_eq!(
                    a.meet_is_subset_of(&b, &w),
                    meet.is_subset(&mw),
                    "{what}: meet_is_subset_of"
                );
                assert!(a.meet_is_subset_of(&b, &d), "{what}: meet within itself");
                let mut e = w.clone();
                e.fill(n);
                assert_models(&e, &everything, n, &format!("{what}: fill"));
                assert_eq!(e, Bits::full(n), "{what}: fill equals full");
                e.intersect_with(&Bits::empty(n));
                assert_eq!(e, Bits::empty(n), "{what}: emptied");
                assert_eq!(
                    hash_of(&e),
                    hash_of(&Bits::empty(n)),
                    "{what}: emptied hash"
                );
            }
        }
    }

    #[test]
    fn narrow_sets_are_inline() {
        assert!(matches!(Bits::full(64), Bits::Inline(_)));
        assert!(matches!(Bits::empty(65), Bits::Heap(_)));
        assert_eq!(Bits::full(64).iter().count(), 64);
        assert_eq!(Bits::full(0), Bits::empty(0));
    }
}
