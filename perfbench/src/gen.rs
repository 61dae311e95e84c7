//! Seeded generator of multi-function programs with verdicts known by
//! construction.
//!
//! A program is a shuffled sequence of template *units*; each unit emits one
//! or two functions in both specification styles (a Flux flavour with
//! refined signatures only, and a baseline flavour with contracts and loop
//! invariants).  The template mix is stratified — every program of a given
//! size holds the same number of units of each template — so the work per
//! program barely moves with the seed; the seed picks names, constants,
//! order, which programs carry a bug and which bug.
//!
//! The label of every function comes from construction: a function is
//! expected to verify unless the generator planted a bug in it.  Templates
//! are restricted to shapes the checker decides at this commit: loop
//! invariants never mention seed constants (an invariant such as
//! `i < n + c` lies outside the qualifier set and is rejected), constants
//! only appear in straight-line guards and refined calls.

/// A small deterministic PRNG (splitmix64): the benchmark owns it, so the
/// generated inputs depend only on the seed, never on the program under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The template shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Template {
    /// `while i < n { i += 1 }` returning `n`.
    Count,
    /// `RVec` push loop building a vector of length `n`.
    Push,
    /// `RVec` sum loop reading every element.
    Sum,
    /// Indexing guarded by a bound check with seed constants.
    GuardedIndex,
    /// A call through a refined signature with seed constants.
    RefinedCall,
}

/// Every template, in the order a stratified program cycles through them.
pub const TEMPLATES: [Template; 5] = [
    Template::Count,
    Template::Push,
    Template::Sum,
    Template::GuardedIndex,
    Template::RefinedCall,
];

/// The bug a mutant carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bug {
    /// A loop bound `<` weakened to `<=`.
    OffByOne,
    /// The bound check in front of an index removed.
    DroppedGuard,
    /// A constant shifted by one against its specification.
    WrongConstant,
}

impl Template {
    /// Bugs that can be planted in this template.
    fn bugs(self) -> &'static [Bug] {
        match self {
            Template::Count | Template::Push | Template::Sum => &[Bug::OffByOne],
            Template::GuardedIndex => &[Bug::DroppedGuard, Bug::WrongConstant],
            Template::RefinedCall => &[Bug::WrongConstant],
        }
    }
}

/// One generated function and its label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenFn {
    /// Function name (unique within the program).
    pub name: String,
    /// Template the function came from.
    pub template: Template,
    /// The label: true unless a bug was planted in this function.
    pub expect_safe: bool,
}

/// A generated program in both specification styles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenProgram {
    /// Seed the program was generated from.
    pub seed: u64,
    /// Flux flavour (refined signatures, no invariants).
    pub flux_src: String,
    /// Baseline flavour (contracts and loop invariants).
    pub baseline_src: String,
    /// Functions in source order, with their labels (identical in both
    /// flavours).
    pub functions: Vec<GenFn>,
    /// The planted bug, if any.
    pub bug: Option<Bug>,
}

impl GenProgram {
    /// The program-level label: true when every function should verify.
    pub fn expect_safe(&self) -> bool {
        self.bug.is_none()
    }
}

/// Generates one program of `units` template units (one or two functions
/// each).  With `buggy` set, exactly one unit carries a bug.
pub fn program(seed: u64, units: usize, buggy: bool) -> GenProgram {
    let mut rng = Rng::new(seed);
    let mut order: Vec<Template> = (0..units).map(|i| TEMPLATES[i % TEMPLATES.len()]).collect();
    rng.shuffle(&mut order);
    let bug_at = buggy.then(|| rng.below(units as u64) as usize);
    let mut out = GenProgram {
        seed,
        flux_src: String::new(),
        baseline_src: String::new(),
        functions: Vec::new(),
        bug: None,
    };
    for (index, template) in order.into_iter().enumerate() {
        let bug = (bug_at == Some(index)).then(|| {
            let kinds = template.bugs();
            kinds[rng.below(kinds.len() as u64) as usize]
        });
        if bug.is_some() {
            out.bug = bug;
        }
        emit(&mut out, &mut rng, template, index, bug);
    }
    out
}

/// A corpus of `count` programs derived from `seed`: `count / 3` of them
/// carry a bug, at seed-chosen positions.
pub fn corpus(seed: u64, count: usize, units: usize) -> Vec<GenProgram> {
    let mut rng = Rng::new(seed);
    let mut buggy: Vec<bool> = (0..count).map(|i| i % 3 == 2).collect();
    rng.shuffle(&mut buggy);
    buggy
        .into_iter()
        .enumerate()
        .map(|(i, b)| program(rng.next_u64() ^ (i as u64), units, b))
        .collect()
}

fn emit(out: &mut GenProgram, rng: &mut Rng, template: Template, index: usize, bug: Option<Bug>) {
    let (flux, baseline, fns): (String, String, Vec<(String, bool)>) = match template {
        Template::Count => {
            let name = format!("count_{index}");
            let cmp = if bug == Some(Bug::OffByOne) {
                "<="
            } else {
                "<"
            };
            let flux = format!(
                "#[flux::sig(fn(usize[@n]) -> usize[n])]\n\
                 fn {name}(n: usize) -> usize {{\n\
                 \x20   let mut i = 0;\n\
                 \x20   while i {cmp} n {{\n\
                 \x20       i += 1;\n\
                 \x20   }}\n\
                 \x20   i\n\
                 }}\n"
            );
            let baseline = format!(
                "#[requires(n >= 0)]\n\
                 #[ensures(result == n)]\n\
                 fn {name}(n: usize) -> usize {{\n\
                 \x20   let mut i = 0;\n\
                 \x20   while i {cmp} n {{\n\
                 \x20       invariant!(i >= 0);\n\
                 \x20       invariant!(i <= n);\n\
                 \x20       i += 1;\n\
                 \x20   }}\n\
                 \x20   i\n\
                 }}\n"
            );
            (flux, baseline, vec![(name, bug.is_none())])
        }
        Template::Push => {
            let name = format!("fill_{index}");
            let cmp = if bug == Some(Bug::OffByOne) {
                "<="
            } else {
                "<"
            };
            let value = rng.below(100);
            let flux = format!(
                "#[flux::sig(fn(usize[@n]) -> RVec<i32>[n])]\n\
                 fn {name}(n: usize) -> RVec<i32> {{\n\
                 \x20   let mut vec: RVec<i32> = RVec::new();\n\
                 \x20   let mut i = 0;\n\
                 \x20   while i {cmp} n {{\n\
                 \x20       vec.push({value});\n\
                 \x20       i += 1;\n\
                 \x20   }}\n\
                 \x20   vec\n\
                 }}\n"
            );
            let baseline = format!(
                "#[requires(n >= 0)]\n\
                 #[ensures(vlen(result) == n)]\n\
                 fn {name}(n: usize) -> RVec<i32> {{\n\
                 \x20   let mut vec = RVec::new();\n\
                 \x20   let mut i = 0;\n\
                 \x20   while i {cmp} n {{\n\
                 \x20       invariant!(i >= 0);\n\
                 \x20       invariant!(i <= n);\n\
                 \x20       invariant!(vlen(vec) == i);\n\
                 \x20       vec.push({value});\n\
                 \x20       i += 1;\n\
                 \x20   }}\n\
                 \x20   vec\n\
                 }}\n"
            );
            (flux, baseline, vec![(name, bug.is_none())])
        }
        Template::Sum => {
            let name = format!("sum_{index}");
            let cmp = if bug == Some(Bug::OffByOne) {
                "<="
            } else {
                "<"
            };
            let flux = format!(
                "#[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]\n\
                 fn {name}(v: &RVec<i32>) -> i32 {{\n\
                 \x20   let mut total = 0;\n\
                 \x20   let mut i = 0;\n\
                 \x20   while i {cmp} v.len() {{\n\
                 \x20       total = total + v.get(i);\n\
                 \x20       i += 1;\n\
                 \x20   }}\n\
                 \x20   total\n\
                 }}\n"
            );
            let baseline = format!(
                "fn {name}(v: RVec<i32>) -> i32 {{\n\
                 \x20   let mut total = 0;\n\
                 \x20   let mut i = 0;\n\
                 \x20   while i {cmp} v.len() {{\n\
                 \x20       invariant!(0 <= i);\n\
                 \x20       total = total + v.get(i);\n\
                 \x20       i += 1;\n\
                 \x20   }}\n\
                 \x20   total\n\
                 }}\n"
            );
            (flux, baseline, vec![(name, bug.is_none())])
        }
        Template::GuardedIndex => {
            let name = format!("at_{index}");
            let offset = rng.below(10);
            let fallback = rng.below(1000);
            let access = if bug == Some(Bug::WrongConstant) {
                offset + 1
            } else {
                offset
            };
            let body = if bug == Some(Bug::DroppedGuard) {
                format!("    v.get(i + {access})\n")
            } else {
                format!(
                    "    if i + {offset} < v.len() {{\n\
                     \x20       v.get(i + {access})\n\
                     \x20   }} else {{\n\
                     \x20       {fallback}\n\
                     \x20   }}\n"
                )
            };
            let flux = format!(
                "#[flux::sig(fn(v: &RVec<i32>[@n], usize) -> i32)]\n\
                 fn {name}(v: &RVec<i32>, i: usize) -> i32 {{\n{body}}}\n"
            );
            let baseline = format!(
                "#[requires(i >= 0)]\n\
                 fn {name}(v: RVec<i32>, i: usize) -> i32 {{\n{body}}}\n"
            );
            (flux, baseline, vec![(name, bug.is_none())])
        }
        Template::RefinedCall => {
            let callee = format!("add_{index}");
            let caller = format!("call_{index}");
            let (a, b) = (rng.below(100) + 1, rng.below(100) + 1);
            let promised = if bug == Some(Bug::WrongConstant) {
                a + b + 1
            } else {
                a + b
            };
            let flux = format!(
                "#[flux::sig(fn(i32[@a], i32[@b]) -> i32[a + b])]\n\
                 fn {callee}(a: i32, b: i32) -> i32 {{\n\
                 \x20   a + b\n\
                 }}\n\
                 \n\
                 #[flux::sig(fn() -> i32[{promised}])]\n\
                 fn {caller}() -> i32 {{\n\
                 \x20   {callee}({a}, {b})\n\
                 }}\n"
            );
            let baseline = format!(
                "#[ensures(result == a + b)]\n\
                 fn {callee}(a: i32, b: i32) -> i32 {{\n\
                 \x20   a + b\n\
                 }}\n\
                 \n\
                 #[ensures(result == {promised})]\n\
                 fn {caller}() -> i32 {{\n\
                 \x20   {callee}({a}, {b})\n\
                 }}\n"
            );
            (
                flux,
                baseline,
                vec![(callee, true), (caller, bug.is_none())],
            )
        }
    };
    for src in [&mut out.flux_src, &mut out.baseline_src] {
        if !src.is_empty() {
            src.push('\n');
        }
    }
    out.flux_src.push_str(&flux);
    out.baseline_src.push_str(&baseline);
    out.functions
        .extend(fns.into_iter().map(|(name, expect_safe)| GenFn {
            name,
            template,
            expect_safe,
        }));
}
