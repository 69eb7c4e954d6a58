//! Exact two-level minimization via the Quine–McCluskey procedure.
//!
//! Prime implicants are generated from the on-set plus don't-care set, then
//! a minimum cover of the on-set is selected by essential-prime extraction,
//! dominance reduction and branch-and-bound (falling back to a greedy
//! heuristic only for covering tables too large to solve exactly).

use crate::budget::{BudgetError, MinimizeBudget};
use crate::cover::Cover;
use crate::cube::Cube;
use crate::spec::FunctionSpec;
use std::collections::{BTreeMap, BTreeSet};

/// Residual covering problems with at most this many prime columns are
/// solved exactly by branch-and-bound; larger ones fall back to greedy.
const EXACT_COVER_LIMIT: usize = 24;

/// Generates all prime implicants of `spec` (using don't-cares for merging).
///
/// A prime implicant is a cube that covers only on/don't-care minterms and
/// cannot be enlarged (by dropping a literal) without covering an off
/// minterm.
#[must_use]
pub fn prime_implicants(spec: &FunctionSpec) -> Vec<Cube> {
    match prime_implicants_checked(spec, &MinimizeBudget::unlimited()) {
        Ok(primes) => primes,
        Err(_) => unreachable!("unlimited budgets never abort"),
    }
}

/// Widest spec whose primes come from the dense ternary table: `3^12` is
/// 531,441 one-byte entries. Wider specs use the merge loop.
pub const DENSE_TABLE_MAX_WIDTH: usize = 12;

/// [`prime_implicants`] with a resource budget: the minterm count is checked
/// arithmetically *before* the `O(2^width)` seed enumeration, and prime
/// generation aborts as soon as it has found more than `max_primes`
/// implicants, or when the deadline passes.
///
/// Up to [`DENSE_TABLE_MAX_WIDTH`] variables the primes come from one pass
/// over a dense table of all `3^width` cubes; wider specs use the
/// level-by-level merge loop of [`prime_implicants_merged_checked`]. Both
/// return the same sorted list.
///
/// # Errors
///
/// Returns a [`BudgetError`] naming the violated limit.
pub fn prime_implicants_checked(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Vec<Cube>, BudgetError> {
    let seeds = check_seed_budget(spec, budget)?;
    let primes = if spec.width() <= DENSE_TABLE_MAX_WIDTH {
        dense_table_primes(spec, budget)?
    } else {
        prime_implicants_merged_checked(spec, budget)?
    };
    fsmgen_obs::counter("minimize", "qm_seed_minterms", seeds as u64);
    fsmgen_obs::counter("minimize", "qm_primes", primes.len() as u64);
    Ok(primes)
}

/// Checks `max_minterms` and `max_primes` against the seed count (every
/// minterm outside the off-set) and returns it. The count is known without
/// enumerating anything.
fn check_seed_budget(spec: &FunctionSpec, budget: &MinimizeBudget) -> Result<usize, BudgetError> {
    let seeds = ((1u64 << spec.width()) - spec.off_set().len() as u64) as usize;
    if let Some(limit) = budget.max_minterms {
        if seeds > limit {
            return Err(BudgetError::Minterms {
                required: seeds,
                limit,
            });
        }
    }
    if let Some(limit) = budget.max_primes {
        if seeds > limit {
            return Err(BudgetError::Primes {
                generated: seeds,
                limit,
            });
        }
    }
    budget.check_deadline("prime seeding")?;
    Ok(seeds)
}

/// Table entry flag: the cube covers no off minterm.
const IMPLICANT: u8 = 1;
/// Table entry flag: the cube covers at least one on minterm.
const HAS_ON: u8 = 2;
/// Table entry flag: dropping one of the cube's literals gives an implicant.
const EXPANDABLE: u8 = 4;
/// Table entries between deadline polls.
const TABLE_POLL_ENTRIES: usize = 1 << 12;

/// Prime generation over a dense table of all `3^width` cubes. Digit `i` of
/// a cube's index is variable `i`: 0, 1, or 2 for a don't-care. Counting
/// up, both halves of a cube at its lowest don't-care come before it, so
/// one pass decides every implicant; each implicant then marks the cubes
/// it expands by one literal as not prime. The primes are the implicants
/// left unmarked that cover an on minterm.
fn dense_table_primes(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Vec<Cube>, BudgetError> {
    let width = spec.width();
    debug_assert!(width <= DENSE_TABLE_MAX_WIDTH);
    let mut pow3 = [1usize; DENSE_TABLE_MAX_WIDTH + 1];
    for i in 1..=width {
        pow3[i] = pow3[i - 1] * 3;
    }
    let words = (1usize << width).div_ceil(64);
    let bitset = |set: &BTreeSet<u32>| {
        let mut bits = vec![0u64; words];
        for &m in set {
            bits[m as usize / 64] |= 1 << (m % 64);
        }
        bits
    };
    let (on, off) = (bitset(spec.on_set()), bitset(spec.off_set()));

    let mut table = vec![0u8; pow3[width]];
    let mut implicants = 0usize;
    // The index's digits as bitmasks: `ones` holds the 1 digits, `free`
    // the don't-cares.
    let (mut ones, mut free) = (0u32, 0u32);
    for t in 0..table.len() {
        if t % TABLE_POLL_ENTRIES == 0 {
            budget.check_deadline("prime table")?;
        }
        let entry = if free == 0 {
            let (word, bit) = (ones as usize / 64, 1u64 << (ones % 64));
            if off[word] & bit != 0 {
                0
            } else if on[word] & bit != 0 {
                IMPLICANT | HAS_ON
            } else {
                IMPLICANT
            }
        } else {
            let step = pow3[free.trailing_zeros() as usize];
            let (zero, one) = (table[t - 2 * step], table[t - step]);
            if zero & one & IMPLICANT == 0 {
                0
            } else {
                IMPLICANT | ((zero | one) & HAS_ON)
            }
        };
        if entry & IMPLICANT != 0 {
            implicants += 1;
            if let Some(limit) = budget.max_primes {
                if implicants > limit {
                    return Err(BudgetError::Primes {
                        generated: implicants,
                        limit,
                    });
                }
            }
            let mut rest = free;
            while rest != 0 {
                let step = pow3[rest.trailing_zeros() as usize];
                table[t - step] |= EXPANDABLE;
                table[t - 2 * step] |= EXPANDABLE;
                rest &= rest - 1;
            }
        }
        table[t] = entry;
        // Count up in base 3: a don't-care digit wraps to 0 and carries.
        let mut bit = 1u32;
        while free & bit != 0 {
            free &= !bit;
            bit <<= 1;
        }
        if ones & bit != 0 {
            ones &= !bit;
            free |= bit;
        } else {
            ones |= bit;
        }
    }

    let mut primes: Vec<Cube> = table
        .iter()
        .enumerate()
        .filter(|&(_, &entry)| entry == IMPLICANT | HAS_ON)
        .map(|(mut t, _)| {
            let (mut mask, mut bits) = (0u32, 0u32);
            for var in 0..width {
                match t % 3 {
                    0 => mask |= 1 << var,
                    1 => {
                        mask |= 1 << var;
                        bits |= 1 << var;
                    }
                    _ => {}
                }
                t /= 3;
            }
            Cube::new(mask, bits)
        })
        .collect();
    primes.sort_unstable();
    Ok(primes)
}

/// The classic Quine–McCluskey merge loop: seeds every on and don't-care
/// minterm and merges `BTreeSet<Cube>` groups level by level. It runs at
/// every width and serves as the reference for the dense table; here
/// `max_primes` bounds the cubes alive in any one level (primes so far plus
/// the current level).
///
/// # Errors
///
/// Returns a [`BudgetError`] naming the violated limit.
pub fn prime_implicants_merged_checked(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Vec<Cube>, BudgetError> {
    check_seed_budget(spec, budget)?;
    let width = spec.width();

    // Seed with every on and explicit-or-implicit don't-care minterm. Using
    // implicit don't-cares is required for correctness of QM merging.
    let mut current: BTreeSet<Cube> = spec
        .on_set()
        .iter()
        .chain(spec.all_dont_cares().collect::<Vec<_>>().iter())
        .map(|&m| Cube::from_minterm(m, width))
        .collect();

    let mut primes: BTreeSet<Cube> = BTreeSet::new();
    while !current.is_empty() {
        budget.check_deadline("prime merging")?;
        if let Some(limit) = budget.max_primes {
            let alive = primes.len() + current.len();
            if alive > limit {
                return Err(BudgetError::Primes {
                    generated: alive,
                    limit,
                });
            }
        }
        // Group by (mask, ones-count); only cubes in adjacent ones-count
        // groups with identical masks can merge.
        let mut groups: BTreeMap<(u32, u32), Vec<Cube>> = BTreeMap::new();
        for c in &current {
            groups
                .entry((c.mask(), c.bits().count_ones()))
                .or_default()
                .push(*c);
        }
        let mut merged_into_next: BTreeSet<Cube> = BTreeSet::new();
        let mut was_merged: BTreeSet<Cube> = BTreeSet::new();
        for (&(mask, ones), group) in &groups {
            if let Some(next_group) = groups.get(&(mask, ones + 1)) {
                for a in group {
                    for b in next_group {
                        if let Some(m) = a.merge(b) {
                            merged_into_next.insert(m);
                            was_merged.insert(*a);
                            was_merged.insert(*b);
                        }
                    }
                }
            }
        }
        for c in &current {
            if !was_merged.contains(c) {
                primes.insert(*c);
            }
        }
        current = merged_into_next;
    }

    // Keep only primes that cover at least one on minterm: primes covering
    // purely don't-care territory are useless for the cover.
    Ok(primes
        .into_iter()
        .filter(|p| spec.on_set().iter().any(|&m| p.covers_minterm(m)))
        .collect())
}

/// Minimizes `spec` exactly: returns a minimum-cube (then minimum-literal)
/// sum-of-products [`Cover`] of the on-set that avoids the off-set.
///
/// For an empty on-set, returns the empty (constant-false) cover.
///
/// The covering step is exact for residual tables of up to
/// 24 primes after essential extraction and dominance
/// reduction, which comfortably includes every predictor in the paper;
/// beyond that a deterministic greedy selection is used.
#[must_use]
pub fn minimize_exact(spec: &FunctionSpec) -> Cover {
    match minimize_exact_checked(spec, &MinimizeBudget::unlimited()) {
        Ok(cover) => cover,
        Err(_) => unreachable!("unlimited budgets never abort"),
    }
}

/// [`minimize_exact`] under a [`MinimizeBudget`].
///
/// Prime generation respects the minterm/prime/deadline limits; the covering
/// step treats `max_cover_nodes` and the deadline as quality limits only —
/// when exceeded it falls back to the deterministic greedy selection, so a
/// cover that got past prime generation is always returned.
///
/// # Errors
///
/// Returns a [`BudgetError`] naming the violated limit.
pub fn minimize_exact_checked(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Cover, BudgetError> {
    let width = spec.width();
    if spec.on_set().is_empty() {
        return Ok(Cover::new(width));
    }
    let primes = prime_implicants_checked(spec, budget)?;
    let chosen = select_cover(&primes, spec.on_set(), budget);
    Ok(Cover::from_cubes(width, chosen))
}

/// Minimizes `spec` while also minimizing the *effective window*: the
/// highest-numbered variable any chosen cube constrains.
///
/// Minimum-cube covers are not unique, and for FSM predictors the choice
/// matters enormously: a cube constraining variable `k` forces the
/// machine to remember `k+1` input bits, so the state count is governed
/// by the largest constrained variable, not the cube count. This variant
/// finds the smallest window `w` such that primes constraining only
/// variables `0..w` (the most recent `w` inputs) still cover the on-set,
/// then selects a minimum cover within that window.
///
/// For an empty on-set, returns the empty (constant-false) cover.
///
/// # Examples
///
/// ```
/// use fsmgen_logicmin::{qm, FunctionSpec};
///
/// // Period-3 behaviour observed at history 3: the plain minimizer picks
/// // the single cube "1--" (three-bit window); the window-aware one finds
/// // a two-cube cover over the last two bits only.
/// let spec = FunctionSpec::from_sets(3, [0b110, 0b101], [0b011])?;
/// assert_eq!(qm::minimize_exact(&spec).display(), "1--");
/// let short = qm::minimize_short_window(&spec);
/// for cube in short.cubes() {
///     assert!(cube.var(2).is_none(), "oldest bit must be unconstrained");
/// }
/// # Ok::<(), fsmgen_logicmin::SpecError>(())
/// ```
#[must_use]
pub fn minimize_short_window(spec: &FunctionSpec) -> Cover {
    match minimize_short_window_checked(spec, &MinimizeBudget::unlimited()) {
        Ok(cover) => cover,
        Err(_) => unreachable!("unlimited budgets never abort"),
    }
}

/// [`minimize_short_window`] under a [`MinimizeBudget`].
///
/// Budget semantics match [`minimize_exact_checked`]: hard limits apply to
/// prime generation, while the covering step degrades to greedy selection
/// instead of failing.
///
/// # Errors
///
/// Returns a [`BudgetError`] naming the violated limit.
pub fn minimize_short_window_checked(
    spec: &FunctionSpec,
    budget: &MinimizeBudget,
) -> Result<Cover, BudgetError> {
    let width = spec.width();
    if spec.on_set().is_empty() {
        return Ok(Cover::new(width));
    }
    let primes = prime_implicants_checked(spec, budget)?;
    for window in 1..=width {
        budget.check_deadline("window search")?;
        let mask_limit: u32 = if window >= 32 {
            u32::MAX
        } else {
            (1u32 << window) - 1
        };
        let allowed: Vec<Cube> = primes
            .iter()
            .filter(|p| p.mask() & !mask_limit == 0)
            .copied()
            .collect();
        let covers_all = spec
            .on_set()
            .iter()
            .all(|&m| allowed.iter().any(|p| p.covers_minterm(m)));
        if covers_all {
            return Ok(Cover::from_cubes(
                width,
                select_cover(&allowed, spec.on_set(), budget),
            ));
        }
    }
    // Unreachable: window == width always covers, but keep a safe fallback.
    Ok(Cover::from_cubes(
        width,
        select_cover(&primes, spec.on_set(), budget),
    ))
}

/// Selects a small subset of `primes` covering every minterm in `on`.
fn select_cover(primes: &[Cube], on: &BTreeSet<u32>, budget: &MinimizeBudget) -> Vec<Cube> {
    let minterms: Vec<u32> = on.iter().copied().collect();
    // coverage[p] = bitset (as Vec<u64>) of minterm indices prime p covers.
    let n = minterms.len();
    let words = n.div_ceil(64);
    let coverage: Vec<Vec<u64>> = primes
        .iter()
        .map(|p| {
            let mut bits = vec![0u64; words];
            for (i, &m) in minterms.iter().enumerate() {
                if p.covers_minterm(m) {
                    bits[i / 64] |= 1 << (i % 64);
                }
            }
            bits
        })
        .collect();

    let mut uncovered: Vec<u64> = vec![0u64; words];
    for i in 0..n {
        uncovered[i / 64] |= 1 << (i % 64);
    }
    let mut chosen: Vec<usize> = Vec::new();
    let mut active: Vec<usize> = (0..primes.len()).collect();

    loop {
        let mut progress = false;

        // Essential primes: a still-uncovered minterm covered by exactly one
        // active prime forces that prime.
        'minterm: for i in 0..n {
            if uncovered[i / 64] & (1 << (i % 64)) == 0 {
                continue;
            }
            let mut only = None;
            for &p in &active {
                if coverage[p][i / 64] & (1 << (i % 64)) != 0 {
                    if only.is_some() {
                        continue 'minterm;
                    }
                    only = Some(p);
                }
            }
            if let Some(p) = only {
                chosen.push(p);
                for w in 0..words {
                    uncovered[w] &= !coverage[p][w];
                }
                active.retain(|&q| q != p);
                progress = true;
            }
        }

        if uncovered.iter().all(|&w| w == 0) {
            break;
        }

        // Column dominance: drop primes whose remaining coverage is a subset
        // of another active prime's (ties broken toward fewer literals,
        // then lower index, to stay deterministic).
        let rem_cov: Vec<Vec<u64>> = active
            .iter()
            .map(|&p| {
                (0..words)
                    .map(|w| coverage[p][w] & uncovered[w])
                    .collect::<Vec<u64>>()
            })
            .collect();
        // A prime containing `a`'s remaining coverage must cover its lowest
        // remaining minterm, so `a` only scans the (ascending) list of
        // active positions covering that minterm.
        let mut covering: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, cov) in rem_cov.iter().enumerate() {
            for (w, &bits) in cov.iter().enumerate() {
                let mut rest = bits;
                while rest != 0 {
                    covering[w * 64 + rest.trailing_zeros() as usize].push(a);
                    rest &= rest - 1;
                }
            }
        }
        let mut keep = vec![true; active.len()];
        for a in 0..active.len() {
            let lowest = rem_cov[a]
                .iter()
                .position(|&w| w != 0)
                .map(|w| w * 64 + rem_cov[a][w].trailing_zeros() as usize);
            let Some(lowest) = lowest else {
                keep[a] = false;
                continue;
            };
            for &b in &covering[lowest] {
                if a == b || !keep[b] {
                    continue;
                }
                let a_subset_b = (0..words).all(|w| rem_cov[a][w] & !rem_cov[b][w] == 0);
                if a_subset_b {
                    let equal = (0..words).all(|w| rem_cov[a][w] == rem_cov[b][w]);
                    let a_cost = primes[active[a]].literal_count();
                    let b_cost = primes[active[b]].literal_count();
                    let dominated = if equal {
                        b_cost < a_cost || (b_cost == a_cost && b < a)
                    } else {
                        b_cost <= a_cost
                    };
                    if dominated {
                        keep[a] = false;
                        progress = true;
                        break;
                    }
                }
            }
        }
        let new_active: Vec<usize> = active
            .iter()
            .zip(&keep)
            .filter_map(|(&p, &k)| k.then_some(p))
            .collect();
        if new_active.len() != active.len() {
            active = new_active;
        }

        if !progress {
            // Cyclic core: solve exactly if small and within budget,
            // otherwise greedily. Budget exhaustion here only degrades the
            // cover quality — the greedy fallback always completes.
            let picks = if active.len() <= EXACT_COVER_LIMIT {
                exact_cover(&active, &coverage, &uncovered, primes, budget)
            } else {
                None
            };
            match picks {
                Some(picks) => chosen.extend(picks),
                None => greedy_cover(&mut chosen, &active, &coverage, &mut uncovered),
            }
            break;
        }
    }

    let mut result: Vec<Cube> = chosen.into_iter().map(|p| primes[p]).collect();
    result.sort_unstable();
    result.dedup();
    result
}

/// Branch-and-bound over subsets of `active`; returns the minimum-cost pick,
/// or `None` when the node budget or deadline was exhausted first (the
/// caller then falls back to greedy selection).
fn exact_cover(
    active: &[usize],
    coverage: &[Vec<u64>],
    uncovered: &[u64],
    primes: &[Cube],
    budget: &MinimizeBudget,
) -> Option<Vec<usize>> {
    struct Ctx<'a> {
        active: &'a [usize],
        coverage: &'a [Vec<u64>],
        primes: &'a [Cube],
        best: Option<(usize, u32, Vec<usize>)>,
        budget: &'a MinimizeBudget,
        nodes: usize,
        aborted: bool,
    }
    /// Deadline polls are amortized over this many branch nodes.
    const DEADLINE_POLL_NODES: usize = 256;
    fn cost(picks: &[usize], primes: &[Cube]) -> (usize, u32) {
        (
            picks.len(),
            picks.iter().map(|&p| primes[p].literal_count()).sum(),
        )
    }
    fn rec(ctx: &mut Ctx<'_>, idx: usize, uncovered: Vec<u64>, picks: Vec<usize>) {
        if ctx.aborted {
            return;
        }
        ctx.nodes += 1;
        if ctx
            .budget
            .max_cover_nodes
            .is_some_and(|limit| ctx.nodes > limit)
            || (ctx.nodes.is_multiple_of(DEADLINE_POLL_NODES) && ctx.budget.deadline_expired())
        {
            ctx.aborted = true;
            return;
        }
        if uncovered.iter().all(|&w| w == 0) {
            let (c, l) = cost(&picks, ctx.primes);
            let better = match &ctx.best {
                None => true,
                Some((bc, bl, _)) => c < *bc || (c == *bc && l < *bl),
            };
            if better {
                ctx.best = Some((c, l, picks));
            }
            return;
        }
        if idx >= ctx.active.len() {
            return;
        }
        if let Some((bc, _, _)) = &ctx.best {
            if picks.len() + 1 > *bc {
                return; // cannot beat the incumbent
            }
        }
        // Branch on the first uncovered minterm: some covering prime at or
        // after idx must be chosen. Simpler: include/exclude active[idx],
        // pruning branches that skip a prime nothing later can replace.
        let p = ctx.active[idx];
        let helps = (0..uncovered.len()).any(|w| ctx.coverage[p][w] & uncovered[w] != 0);
        if helps {
            let mut next_unc = uncovered.clone();
            for (u, c) in next_unc.iter_mut().zip(&ctx.coverage[p]) {
                *u &= !c;
            }
            let mut next_picks = picks.clone();
            next_picks.push(p);
            rec(ctx, idx + 1, next_unc, next_picks);
        }
        // Exclude branch: only viable if the remaining primes can still
        // cover everything.
        let mut remaining_cover = vec![0u64; uncovered.len()];
        for &q in &ctx.active[idx + 1..] {
            for (r, c) in remaining_cover.iter_mut().zip(&ctx.coverage[q]) {
                *r |= c;
            }
        }
        if (0..uncovered.len()).all(|w| uncovered[w] & !remaining_cover[w] == 0) {
            rec(ctx, idx + 1, uncovered, picks);
        }
    }

    let mut ctx = Ctx {
        active,
        coverage,
        primes,
        best: None,
        budget,
        nodes: 0,
        aborted: false,
    };
    rec(&mut ctx, 0, uncovered.to_vec(), Vec::new());
    if ctx.aborted {
        return None;
    }
    Some(ctx.best.map(|(_, _, picks)| picks).unwrap_or_default())
}

/// Deterministic greedy covering for oversized cyclic cores.
fn greedy_cover(
    chosen: &mut Vec<usize>,
    active: &[usize],
    coverage: &[Vec<u64>],
    uncovered: &mut [u64],
) {
    let words = uncovered.len();
    while uncovered.iter().any(|&w| w != 0) {
        let mut best: Option<(usize, u32)> = None; // (prime, gain)
        for &p in active {
            let gain: u32 = (0..words)
                .map(|w| (coverage[p][w] & uncovered[w]).count_ones())
                .sum();
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bp, bg)) => gain > bg || (gain == bg && p < bp),
            };
            if better {
                best = Some((p, gain));
            }
        }
        let Some((p, _)) = best else { break };
        chosen.push(p);
        for w in 0..words {
            uncovered[w] &= !coverage[p][w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MintermKind;

    fn verify(spec: &FunctionSpec, cover: &Cover) {
        for m in 0..(1u64 << spec.width()) as u32 {
            match spec.kind(m) {
                MintermKind::On => assert!(cover.covers_minterm(m), "on minterm {m:b} uncovered"),
                MintermKind::Off => {
                    assert!(!cover.covers_minterm(m), "off minterm {m:b} covered")
                }
                MintermKind::DontCare => {}
            }
        }
    }

    #[test]
    fn paper_running_example() {
        // {00 -> 0, 01 -> 1, 10 -> 1, 11 -> 1} minimizes to (x1) + (1x).
        let spec = FunctionSpec::from_sets(2, [0b01, 0b10, 0b11], [0b00]).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.literal_count(), 2);
        let mut terms: Vec<String> = cover.cubes().iter().map(|c| c.display(2)).collect();
        terms.sort();
        assert_eq!(terms, vec!["-1", "1-"]);
    }

    #[test]
    fn empty_on_set_is_constant_false() {
        let spec = FunctionSpec::from_sets(3, [], [0, 1, 2]).unwrap();
        let cover = minimize_exact(&spec);
        assert!(cover.is_empty());
    }

    #[test]
    fn all_on_is_tautology_cube() {
        let spec = FunctionSpec::from_sets(2, [0, 1, 2, 3], []).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.cubes()[0].literal_count(), 0);
    }

    #[test]
    fn dont_cares_enable_larger_cubes() {
        // on = {111}, off = {000}; everything else dc. A single-literal cube
        // like "1--" suffices.
        let spec = FunctionSpec::from_sets(3, [0b111], [0b000]).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.literal_count(), 1);
    }

    #[test]
    fn xor_needs_two_cubes() {
        let spec = FunctionSpec::from_sets(2, [0b01, 0b10], [0b00, 0b11]).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.literal_count(), 4);
    }

    #[test]
    fn three_var_xor_worst_case() {
        let on: Vec<u32> = (0u32..8).filter(|m| m.count_ones() % 2 == 1).collect();
        let off: Vec<u32> = (0u32..8).filter(|m| m.count_ones() % 2 == 0).collect();
        let spec = FunctionSpec::from_sets(3, on, off).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 4); // parity is incompressible
    }

    #[test]
    fn cyclic_covering_problem() {
        // The classic cyclic core example where no prime is essential.
        // f = Σm(0,1,2,5,6,7) over 3 vars.
        let on = [0, 1, 2, 5, 6, 7];
        let off = [3, 4];
        let spec = FunctionSpec::from_sets(3, on, off).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert_eq!(cover.len(), 3, "cyclic core minimum is 3 cubes");
    }

    #[test]
    fn primes_are_maximal() {
        let spec = FunctionSpec::from_sets(3, [0b000, 0b001, 0b011], [0b111, 0b100]).unwrap();
        let primes = prime_implicants(&spec);
        for p in &primes {
            // No prime may be expandable: removing any literal must hit the
            // off-set.
            for var in 0..3 {
                if p.var(var).is_some() {
                    let bigger = p.without_var(var);
                    let hits_off = spec.off_set().iter().any(|&m| bigger.covers_minterm(m));
                    assert!(hits_off, "prime {} expandable at var {var}", p.display(3));
                }
            }
            // And primes must not cover off minterms.
            for &m in spec.off_set() {
                assert!(!p.covers_minterm(m));
            }
        }
    }

    #[test]
    fn minterm_budget_rejects_before_enumeration() {
        // 8 variables, tiny off-set: 256 - 2 = 254 seeds needed.
        let spec = FunctionSpec::from_sets(8, [0b1111_0000], [0, 1]).unwrap();
        let budget = MinimizeBudget {
            max_minterms: Some(100),
            ..MinimizeBudget::default()
        };
        assert_eq!(
            minimize_exact_checked(&spec, &budget),
            Err(BudgetError::Minterms {
                required: 254,
                limit: 100
            })
        );
    }

    #[test]
    fn prime_budget_aborts_merging() {
        let spec = FunctionSpec::from_sets(6, [0b111111], [0]).unwrap();
        let budget = MinimizeBudget {
            max_primes: Some(4),
            ..MinimizeBudget::default()
        };
        assert!(matches!(
            prime_implicants_checked(&spec, &budget),
            Err(BudgetError::Primes { .. })
        ));
    }

    #[test]
    fn cover_node_budget_degrades_to_greedy_but_stays_correct() {
        // Cyclic core with no essentials: a one-node budget forces the
        // greedy fallback, which must still produce a valid cover.
        let spec = FunctionSpec::from_sets(3, [0, 1, 2, 5, 6, 7], [3, 4]).unwrap();
        let budget = MinimizeBudget {
            max_cover_nodes: Some(1),
            ..MinimizeBudget::default()
        };
        let cover = minimize_exact_checked(&spec, &budget).unwrap();
        verify(&spec, &cover);
    }

    #[test]
    fn generous_budget_matches_unlimited() {
        let spec = FunctionSpec::from_sets(3, [0, 1, 2, 5, 6, 7], [3, 4]).unwrap();
        let budget = MinimizeBudget {
            max_minterms: Some(1 << 20),
            max_primes: Some(1 << 20),
            max_cover_nodes: Some(1 << 20),
            deadline: None,
        };
        assert_eq!(
            minimize_exact_checked(&spec, &budget).unwrap(),
            minimize_exact(&spec)
        );
        assert_eq!(
            minimize_short_window_checked(&spec, &budget).unwrap(),
            minimize_short_window(&spec)
        );
    }

    #[test]
    fn expired_deadline_fails_fast() {
        use std::time::{Duration, Instant};
        let spec = FunctionSpec::from_sets(3, [0b111], [0b000]).unwrap();
        let budget = MinimizeBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..MinimizeBudget::default()
        };
        assert!(matches!(
            minimize_exact_checked(&spec, &budget),
            Err(BudgetError::DeadlineExpired { .. })
        ));
    }

    #[test]
    fn wide_sparse_function() {
        // 8 variables, sparse specification like a Markov table would give.
        let on = [0b1111_0000, 0b1111_0001, 0b1111_0011, 0b0000_1111];
        let off = [0b0000_0000, 0b1010_1010, 0b0101_0101];
        let spec = FunctionSpec::from_sets(8, on, off).unwrap();
        let cover = minimize_exact(&spec);
        verify(&spec, &cover);
        assert!(cover.len() <= 2, "sparse spec should compress, got {cover}");
    }
}
