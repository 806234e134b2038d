//! Known answers for every persisted or hashed byte format: the `SSCK`
//! checkpoint, the `SSJL` fault and recovery journals, both plan hashes
//! and the service's job content hash. Any change to a field, its order
//! or its width moves one of the constants; a format change must bump
//! the format's version and re-record them.

use softsim_cosim::CoSimStop;
use softsim_resilience::{
    crc32, fnv1a64, resume_from_journal, run, to_bytes, CampaignConfig, Exec, Injection,
    JournalSpec, RecoveryPolicy, Sims, TrialKind,
};
use softsim_serve::{catalog, JobKind, JobSpec, Workload};
use std::path::PathBuf;

/// The CORDIC divider the campaign service serves.
const CORDIC: Workload = Workload::Cordic { iterations: 8, p: 2 };
/// Seed of both 8-trial plans.
const SEED: u64 = 0x5EED_F0A7;
const TRIALS: u32 = 8;

/// `(length, fnv1a64)` of a journal. Not its `crc32`: every record
/// ends in the CRC of its payload, and a CRC over a CRC-sealed frame
/// depends on the frame's length but not on its payload, so the CRC of
/// a whole journal pins only the header and the record lengths.
fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

fn journal_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("softsim_formats_{name}_{}.ssjl", std::process::id()))
}

/// Runs `kind` over `plan` on one worker with a fresh journal; returns
/// the journal's fingerprint and the plan hash its header records.
fn journal<K: TrialKind>(name: &str, kind: &K, plan: &[Injection]) -> ((usize, u64), u64) {
    let path = journal_path(name);
    let make_sim = || catalog::build_sim(CORDIC, false);
    let (base, n) = catalog::observe_window(CORDIC);
    let observe = move |sim: &softsim_cosim::CoSim| catalog::observe_words(sim, base, n);
    let spec = JournalSpec { path: &path, resume: false, fault: None };
    let exec = Exec { workers: 1, journal: Some(spec), ..Exec::default() };
    let (_, status) = run(Sims::Build(&make_sim), plan, &observe, kind, exec).expect("journal");
    assert!(status.durable && status.appended == TRIALS, "{status:?}");
    let bytes = std::fs::read(&path).expect("journal written");
    let hash = resume_from_journal::<K>(&path).expect("journal scans").plan_hash;
    std::fs::remove_file(&path).expect("journal removed");
    (fingerprint(&bytes), hash)
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let mut sim = catalog::build_sim(CORDIC, false);
    let stop = sim.run(600);
    assert!(matches!(stop, CoSimStop::CycleLimit { .. }), "{stop}");
    // The CRC over a whole checkpoint is the CRC residue, the same for
    // every checkpoint; the CRC over its body is the stored trailer.
    let bytes = to_bytes(&sim.save_state());
    let body = crc32(&bytes[..bytes.len() - 4]);
    assert_eq!((bytes.len(), body), (67_382, 0x29EE_E294));
}

/// `CampaignConfig::fast_forward` is ignored, so either value pins the
/// same bytes.
#[test]
fn fault_journal_and_plan_hash_are_pinned() {
    let plan = catalog::campaign_plan(CORDIC, SEED, TRIALS);
    let default = CampaignConfig::default();
    for config in [default, CampaignConfig { fast_forward: false, ..default }] {
        let (bytes, hash) = journal("fault", &config, &plan);
        assert_eq!(bytes, (1_387, 0x323A_B0F0_17F9_3BCB));
        assert_eq!(hash, 0x9048_4586_FC41_6C03);
    }
}

/// A fault journal written under one value of the ignored
/// `CampaignConfig::fast_forward` and cut mid-record, as by a crash,
/// resumes under the other to the uninterrupted report.
#[test]
fn a_fault_journal_resumes_under_either_fast_forward_value() {
    let plan = catalog::campaign_plan(CORDIC, SEED, TRIALS);
    let on = CampaignConfig::default();
    let off = CampaignConfig { fast_forward: false, ..on };
    let make_sim = || catalog::build_sim(CORDIC, false);
    let (base, n) = catalog::observe_window(CORDIC);
    let observe = move |sim: &softsim_cosim::CoSim| catalog::observe_words(sim, base, n);
    let campaign = |config: &CampaignConfig, path: &std::path::Path, resume: bool| {
        let spec = JournalSpec { path, resume, fault: None };
        let exec = Exec { workers: 1, journal: Some(spec), ..Exec::default() };
        run(Sims::Build(&make_sim), &plan, &observe, config, exec).expect("journaled campaign")
    };
    for (write, resume, name) in [(on, off, "ff_on_off"), (off, on, "ff_off_on")] {
        let path = journal_path(name);
        let (want, _) = campaign(&write, &path, false);
        let len = std::fs::metadata(&path).expect("journal written").len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).expect("journal opens");
        file.set_len(len / 2 + 3).expect("journal cut");
        let done = resume_from_journal::<CampaignConfig>(&path).expect("cut journal scans").done();
        assert!(done > 0 && done < TRIALS as usize, "{name}: the cut kept {done} trials");
        let (got, status) = campaign(&resume, &path, true);
        assert_eq!(status.appended as usize + done, TRIALS as usize, "{name}: {status:?}");
        assert_eq!(got, want, "{name}: the resumed report differs");
        std::fs::remove_file(&path).expect("journal removed");
    }
}

#[test]
fn recovery_journal_and_plan_hash_are_pinned() {
    let plan = catalog::recovery_plan(CORDIC, SEED, TRIALS);
    let policy: RecoveryPolicy = catalog::recovery_policy();
    let (bytes, hash) = journal("recovery", &policy, &plan);
    assert_eq!(bytes, (388, 0x187B_D0AE_55BF_A55D));
    assert_eq!(hash, 0x66D8_F5D4_AA9C_1932);
}

#[test]
fn job_content_hashes_are_pinned() {
    assert_eq!(JobSpec::default().content_hash(), 0xBC18_20E1_0853_D851);
    let matmul = JobSpec {
        kind: JobKind::Recovery,
        workload: Workload::Matmul { n: 4, nb: 2 },
        seed: 7,
        trials: 16,
        trial_cycle_budget: Some(200_000),
        ..JobSpec::default()
    };
    assert_eq!(matmul.content_hash(), 0x47CA_25A7_8345_6968);
}
