//! Exact simulated counts and the committed values they must equal.
//!
//! Every op is checked against a reference computed during set-up by
//! the program under test, which cannot catch a change that miscounts
//! consistently. So set-up also runs fixed designs and plans (the
//! CORDIC batch of [`crate::cordic::REF_SEED`], the served job's design
//! and the fixed campaign plan of [`crate::serve::PAIR_SEED`]) and
//! compares their counts with `expected_counts.txt`, recorded at the
//! commit that added the benchmark. A mismatch fails every op of the
//! run. A change that only speeds the simulator up leaves every count
//! equal; a change that is meant to alter one updates the file and
//! says why.

use softsim_cosim::HwStats;
use softsim_iss::CpuStats;
use softsim_resilience::CampaignReport;

/// The committed counts, one `name value` pair per line.
const EXPECTED: &str = include_str!("../expected_counts.txt");

/// One named count.
pub type Count = (String, u64);

/// The processor and bus counts of a run of `design`.
pub fn design(design: &str, cpu: &CpuStats, hw: &HwStats) -> Vec<Count> {
    [
        ("iss.cycles", cpu.cycles),
        ("iss.instructions", cpu.instructions),
        ("iss.fsl_stall_cycles", cpu.fsl_stalls()),
        ("bus.words_to_hw", hw.words_to_hw),
        ("bus.words_from_hw", hw.words_from_hw),
        ("bus.max_to_hw_occupancy", hw.max_to_hw_occupancy as u64),
    ]
    .into_iter()
    .map(|(name, v)| (format!("{design}.{name}"), v))
    .collect()
}

/// The outcome counts of a campaign over `plan`.
pub fn outcomes(plan: &str, report: &CampaignReport) -> Vec<Count> {
    let (masked, sdc, deadlock, fault) = report.counts();
    [("masked", masked), ("sdc", sdc), ("deadlock", deadlock), ("fault", fault)]
        .into_iter()
        .map(|(name, v)| (format!("{plan}.resilience.outcome.{name}"), v as u64))
        .collect()
}

/// The mismatches of `counts` against `expected` (the file's text):
/// one line per count whose value differs or that the file lacks.
pub fn mismatches(counts: &[Count], expected: &str) -> Vec<String> {
    let want = |name: &str| {
        expected.lines().find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse::<u64>().ok()).flatten()
        })
    };
    counts
        .iter()
        .filter_map(|(name, got)| match want(name) {
            Some(w) if w == *got => None,
            Some(w) => Some(format!("{name} {got} (expected {w})")),
            None => Some(format!("{name} {got} (not in expected_counts.txt)")),
        })
        .collect()
}

/// Whether `counts` equal the committed values. Mismatches go to
/// standard error, in the file's format.
pub fn confirm(counts: &[Count]) -> bool {
    let bad = mismatches(counts, EXPECTED);
    for line in &bad {
        eprintln!("count mismatch: {line}");
    }
    bad.is_empty()
}

/// `counts` as a JSON object, for the traced run's diagnostics line.
pub fn json(counts: &[Count]) -> String {
    let fields: Vec<String> = counts.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_name_wrong_and_missing_counts() {
        let file = "# comment\na.x 3\na.y 4\n";
        let counts = |y| vec![("a.x".to_string(), 3), ("a.y".to_string(), y)];
        assert!(mismatches(&counts(4), file).is_empty());
        assert_eq!(mismatches(&counts(5), file), ["a.y 5 (expected 4)"]);
        let missing = mismatches(&[("a.z".to_string(), 1)], file);
        assert_eq!(missing, ["a.z 1 (not in expected_counts.txt)"]);
    }

    #[test]
    fn the_committed_file_parses() {
        for line in EXPECTED.lines().filter(|l| !l.starts_with('#')) {
            let (name, v) = line.split_once(' ').expect("name value");
            assert!(!name.is_empty() && v.trim().parse::<u64>().is_ok(), "{line}");
        }
    }
}
