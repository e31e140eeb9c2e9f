//! Output checks. Each returns `Err` with a reason when the program's
//! output is wrong; the caller counts that as a failed operation.

use dram_locker::defenses::training::TableTwoEntry;
use dram_locker::sim::{Expected, RunReport};
use dram_locker::xlayer::experiments::fig8::Fig8Panel;

/// The catalog verdict a sweep job's report must show.
pub fn verdict(expected: Expected, label: &str, report: &RunReport) -> Result<(), String> {
    match expected {
        Expected::Harmed if !report.harmed() => {
            Err(format!("{label}: expected harm, victim intact"))
        }
        Expected::Contained if report.harmed() => {
            Err(format!("{label}: expected containment, victim harmed"))
        }
        _ => Ok(()),
    }
}

/// A parallel (or sharded) report must equal its serial reference.
pub fn same_report(what: &str, got: &RunReport, reference: &RunReport) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!("{what}: report differs from its serial reference"))
    }
}

/// Undefended hammering harms at least one victim.
pub fn undefended_harmed(report: &RunReport) -> Result<(), String> {
    if report.harmed() {
        Ok(())
    } else {
        Err("undefended replay: the hammer loop harmed no victim".to_owned())
    }
}

/// Under DRAM-Locker every victim's data reads back intact.
pub fn locked_intact(report: &RunReport) -> Result<(), String> {
    if !report.victims.is_empty() && report.victims.iter().all(|v| v.data_intact == Some(true)) {
        Ok(())
    } else {
        Err("locked replay: a victim's data did not survive under DRAM-Locker".to_owned())
    }
}

/// DRAM-Locker serves every request of a trusted trace, and SWAPs the
/// locked rows it reads out of the way and redirects to them.
pub fn locker_served_trusted(report: &RunReport) -> Result<(), String> {
    if report.denied > 0 {
        Err(format!("trusted locked replay: DRAM-Locker denied {} requests", report.denied))
    } else if report.controller.redirected == 0 {
        Err("trusted locked replay: DRAM-Locker redirected no request".to_owned())
    } else {
        Ok(())
    }
}

/// Accuracy margin (percentage points) by which a panel's DRAM-Locker
/// curve ends above its undefended curve.
pub fn fig8_margin_pp(panel: &Fig8Panel) -> f64 {
    panel.with_locker.last_y() - panel.without_locker.last_y()
}

/// Accuracy (percentage points) a panel loses under DRAM-Locker by the
/// end of the attack budget.
pub fn fig8_locker_drop_pp(panel: &Fig8Panel) -> f64 {
    panel.with_locker.points.first().map_or(0.0, |p| p.1) - panel.with_locker.last_y()
}

/// On a Fig. 8 panel, the DRAM-Locker curve ends at least 10 pp above
/// the undefended one.
pub fn fig8_locker_margin(panel: &Fig8Panel) -> Result<(), String> {
    let margin = fig8_margin_pp(panel);
    if margin >= 10.0 {
        Ok(())
    } else {
        Err(format!(
            "fig8 {}: DRAM-Locker curve ends only {margin:.2} pp above the undefended one",
            panel.label
        ))
    }
}

/// Table II's DRAM-Locker row keeps its clean accuracy.
pub fn table2_locker_row(entry: &TableTwoEntry) -> Result<(), String> {
    if entry.name == "DRAM-Locker" && entry.clean_acc_pct == entry.post_attack_acc_pct {
        Ok(())
    } else {
        Err(format!(
            "table2: row {:?} has clean {} != post-attack {}",
            entry.name, entry.clean_acc_pct, entry.post_attack_acc_pct
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_locker::sim::VictimReport;
    use dram_locker::xlayer::report::Series;

    fn report(intact: &[Option<bool>]) -> RunReport {
        RunReport {
            scenario: "t".into(),
            attack: "replay".into(),
            channels: 2,
            defenses: Vec::new(),
            landed_flips: 0,
            requests: 10,
            denied: 0,
            redirected: false,
            target_bits: Vec::new(),
            flipped_bits: Vec::new(),
            curve: Vec::new(),
            cycles: 100,
            energy_pj: 1.0,
            controller: Default::default(),
            victims: intact
                .iter()
                .map(|&data_intact| VictimReport { data_intact, ..Default::default() })
                .collect(),
            mitigations: Vec::new(),
        }
    }

    fn panel(without_end: f64, with_end: f64) -> Fig8Panel {
        let mut without_locker = Series::new("without");
        let mut with_locker = Series::new("with");
        for (series, end) in [(&mut without_locker, without_end), (&mut with_locker, with_end)] {
            series.push(0.0, 80.0);
            series.push(100.0, end);
        }
        Fig8Panel { label: "p".into(), without_locker, with_locker }
    }

    #[test]
    fn verdict_rejects_the_wrong_outcome() {
        let harmed = report(&[Some(false)]);
        let intact = report(&[Some(true)]);
        assert!(verdict(Expected::Harmed, "x", &harmed).is_ok());
        assert!(verdict(Expected::Harmed, "x", &intact).is_err());
        assert!(verdict(Expected::Contained, "x", &intact).is_ok());
        assert!(verdict(Expected::Contained, "x", &harmed).is_err());
        assert!(verdict(Expected::Any, "x", &harmed).is_ok());
    }

    #[test]
    fn serial_reference_mismatch_fails() {
        let a = report(&[Some(true)]);
        let mut b = a.clone();
        assert!(same_report("x", &a, &b).is_ok());
        b.cycles += 1;
        assert!(same_report("x", &a, &b).is_err());
    }

    #[test]
    fn replay_checks_reject_wrong_reports() {
        assert!(undefended_harmed(&report(&[Some(false), Some(true)])).is_ok());
        assert!(undefended_harmed(&report(&[Some(true), Some(true)])).is_err());
        assert!(locked_intact(&report(&[Some(true), Some(true)])).is_ok());
        assert!(locked_intact(&report(&[Some(true), Some(false)])).is_err());
        assert!(locked_intact(&report(&[Some(true), None])).is_err());
        assert!(locked_intact(&report(&[])).is_err());
        let mut trusted = report(&[Some(false)]);
        assert!(locker_served_trusted(&trusted).is_err());
        trusted.controller.redirected = 3;
        assert!(locker_served_trusted(&trusted).is_ok());
        trusted.denied = 1;
        assert!(locker_served_trusted(&trusted).is_err());
    }

    #[test]
    fn fig8_margin_needs_ten_points() {
        assert!(fig8_locker_margin(&panel(10.0, 70.0)).is_ok());
        assert!(fig8_locker_margin(&panel(10.0, 20.0)).is_ok());
        assert!(fig8_locker_margin(&panel(0.0, 5.0)).is_err());
        assert_eq!(fig8_locker_drop_pp(&panel(0.0, 55.0)), 25.0);
    }

    #[test]
    fn table2_locker_row_must_keep_clean_accuracy() {
        let row = |name: &str, post: f64| TableTwoEntry {
            name: name.into(),
            clean_acc_pct: 85.0,
            post_attack_acc_pct: post,
            bit_flips: 1150,
        };
        assert!(table2_locker_row(&row("DRAM-Locker", 85.0)).is_ok());
        assert!(table2_locker_row(&row("DRAM-Locker", 84.0)).is_err());
        assert!(table2_locker_row(&row("Baseline", 85.0)).is_err());
    }
}
