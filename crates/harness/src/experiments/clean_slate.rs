//! Figures 8–11 and Table 3 — the main clean-slate evaluation.
//!
//! Sixteen workloads × eight systems, with and without memory
//! fragmentation. One grid of runs feeds all five artefacts:
//!
//! - Fig. 8 — throughput normalized to `Host-B-VM-B`,
//! - Fig. 9 — mean latency normalized to `Host-B-VM-B`,
//! - Fig. 10 — 99th-percentile latency normalized to `Host-B-VM-B`,
//! - Fig. 11 — TLB misses normalized to GEMINI (fragmented runs),
//! - Table 3 — rates of well-aligned huge pages (fragmented runs).

use crate::exec::run_cells;
use crate::report::{fmt_pct, fmt_ratio, Table};
use crate::runner::run_workload_on;
use crate::scale::Scale;
use gemini_sim_core::stats::geometric_mean;
use gemini_sim_core::Result;
use gemini_vm_sim::{RunResult, SystemKind};
use gemini_workloads::catalog;

/// The full grid of runs.
#[derive(Debug)]
pub struct CleanSlateResults {
    /// Workload names, in catalog order.
    pub workloads: Vec<String>,
    /// `grid[frag][workload][system]`, `frag` 0 = unfragmented, 1 =
    /// fragmented; systems in [`SystemKind::evaluated`] order.
    pub grid: Vec<Vec<Vec<RunResult>>>,
}

/// Runs the grid. `workload_filter` restricts to named workloads (used by
/// quick modes); `None` runs the whole catalog.
pub fn run(scale: &Scale, workload_filter: Option<&[&str]>) -> Result<CleanSlateResults> {
    let specs: Vec<_> = catalog()
        .into_iter()
        .filter(|s| workload_filter.map(|f| f.contains(&s.name)).unwrap_or(true))
        .collect();
    // One cell per (frag, workload, system); seeds derived up front so
    // every cell is a pure function of its parameters, then executed on
    // the worker pool and reassembled in submission order.
    let systems = SystemKind::evaluated();
    let mut cells = Vec::new();
    for frag in [false, true] {
        for (wi, spec) in specs.iter().enumerate() {
            // The seed is shared across systems within a row: each
            // system sees the identical workload stream, so rows stay
            // paired comparisons.
            let seed = scale.seed_for("clean", (wi * 2 + frag as usize) as u64);
            for &system in &systems {
                let spec = spec.clone();
                cells.push(move || run_workload_on(system, &spec, scale, frag, seed));
            }
        }
    }
    let mut results = run_cells(scale.jobs, cells).into_iter();
    let mut grid = Vec::new();
    for _frag in [false, true] {
        let mut per_wl = Vec::new();
        for _ in &specs {
            let mut per_sys = Vec::new();
            for _ in &systems {
                per_sys.push(results.next().expect("one result per cell")?);
            }
            per_wl.push(per_sys);
        }
        grid.push(per_wl);
    }
    Ok(CleanSlateResults {
        workloads: specs.iter().map(|s| s.name.to_string()).collect(),
        grid,
    })
}

impl CleanSlateResults {
    fn system_labels() -> Vec<&'static str> {
        SystemKind::evaluated().iter().map(|s| s.label()).collect()
    }

    fn render_normalized(
        &self,
        title: &str,
        frag: usize,
        metric: impl Fn(&RunResult) -> f64,
        invert: bool,
    ) -> String {
        let mut headers = vec!["workload"];
        headers.extend(Self::system_labels());
        let mut t = Table::new(title, &headers);
        for (wi, name) in self.workloads.iter().enumerate() {
            let row = &self.grid[frag][wi];
            let base = metric(&row[0]);
            let mut cells = vec![name.clone()];
            for r in row {
                let v = metric(r);
                let norm = if base == 0.0 || v == 0.0 {
                    0.0
                } else if invert {
                    base / v
                } else {
                    v / base
                };
                cells.push(fmt_ratio(norm));
            }
            t.row(cells);
        }
        t.render()
    }

    /// Fig. 8: throughput normalized to `Host-B-VM-B`.
    pub fn render_fig08(&self, fragmented: bool) -> String {
        let frag = fragmented as usize;
        let suffix = if fragmented {
            "fragmented"
        } else {
            "unfragmented"
        };
        self.render_normalized(
            &format!("Figure 8: normalized throughput, clean-slate VM ({suffix})"),
            frag,
            |r| r.throughput(),
            false,
        )
    }

    /// Fig. 9: mean latency normalized to `Host-B-VM-B` (lower is better;
    /// reported as the paper does, latency relative to baseline).
    pub fn render_fig09(&self, fragmented: bool) -> String {
        let frag = fragmented as usize;
        let suffix = if fragmented {
            "fragmented"
        } else {
            "unfragmented"
        };
        self.render_normalized(
            &format!("Figure 9: normalized mean latency, clean-slate VM ({suffix})"),
            frag,
            |r| r.mean_latency.0 as f64,
            false,
        )
    }

    /// Fig. 10: p99 latency normalized to `Host-B-VM-B`.
    pub fn render_fig10(&self, fragmented: bool) -> String {
        let frag = fragmented as usize;
        let suffix = if fragmented {
            "fragmented"
        } else {
            "unfragmented"
        };
        self.render_normalized(
            &format!("Figure 10: normalized 99th-percentile latency, clean-slate VM ({suffix})"),
            frag,
            |r| r.p99_latency.0 as f64,
            false,
        )
    }

    /// Fig. 11: TLB misses normalized to GEMINI (fragmented runs).
    pub fn render_fig11(&self) -> String {
        let mut headers = vec!["workload"];
        headers.extend(Self::system_labels());
        let mut t = Table::new(
            "Figure 11: TLB misses normalized to GEMINI, clean-slate VM (fragmented)",
            &headers,
        );
        for (wi, name) in self.workloads.iter().enumerate() {
            let row = &self.grid[1][wi];
            let gemini = row.last().expect("GEMINI is last").tlb_misses().max(1) as f64;
            let mut cells = vec![name.clone()];
            for r in row {
                cells.push(fmt_ratio(r.tlb_misses() as f64 / gemini));
            }
            t.row(cells);
        }
        t.render()
    }

    /// Table 3: rates of well-aligned huge pages (fragmented runs).
    pub fn render_tab03(&self) -> String {
        let mut headers = vec!["workload"];
        headers.extend(SystemKind::tabulated().iter().map(|s| s.label()));
        let mut t = Table::new(
            "Table 3: rates of well-aligned huge pages, clean-slate VM (fragmented)",
            &headers,
        );
        let tab_idx: Vec<usize> = SystemKind::tabulated()
            .iter()
            .map(|s| {
                SystemKind::evaluated()
                    .iter()
                    .position(|e| e == s)
                    .expect("tabulated ⊂ evaluated")
            })
            .collect();
        for (wi, name) in self.workloads.iter().enumerate() {
            let row = &self.grid[1][wi];
            let mut cells = vec![name.clone()];
            for &i in &tab_idx {
                cells.push(fmt_pct(row[i].aligned_rate()));
            }
            t.row(cells);
        }
        t.render()
    }

    /// Geometric-mean throughput speedup of one system over the baseline.
    pub fn mean_speedup(&self, system: SystemKind, fragmented: bool) -> f64 {
        let idx = SystemKind::evaluated()
            .iter()
            .position(|&s| s == system)
            .expect("system is evaluated");
        let frag = fragmented as usize;
        let ratios: Vec<f64> = self.grid[frag]
            .iter()
            .map(|row| row[idx].throughput() / row[0].throughput())
            .collect();
        geometric_mean(&ratios)
    }

    /// Mean well-aligned rate of one system over the fragmented runs.
    pub fn mean_aligned_rate(&self, system: SystemKind) -> f64 {
        let idx = SystemKind::evaluated()
            .iter()
            .position(|&s| s == system)
            .expect("system is evaluated");
        let rates: Vec<f64> = self.grid[1]
            .iter()
            .map(|row| row[idx].aligned_rate())
            .collect();
        rates.iter().sum::<f64>() / rates.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_grid_reproduces_orderings() {
        // Daemon periods are calibrated for full-scale working sets; with
        // smaller ones the runs are too short for any background
        // coalescing to act on fragmented memory, so this ordering check
        // needs the full working-set factor. Memory sizing stays at demo
        // scale and the grid is reduced to keep the test tractable.
        let scale = Scale {
            ws_factor: 1.0,
            ops: 6_000,
            ..Scale::demo()
        };
        let res = run(&scale, Some(&["Masstree", "Redis"])).unwrap();
        assert_eq!(res.workloads, vec!["Masstree", "Redis"]);
        assert_eq!(res.grid.len(), 2);
        assert_eq!(res.grid[0][0].len(), 8);
        // Gemini aligns better than THP on fragmented memory.
        let gem = res.mean_aligned_rate(SystemKind::Gemini);
        let thp = res.mean_aligned_rate(SystemKind::Thp);
        assert!(gem > thp, "Gemini {gem} vs THP {thp}");
        // All renders produce the full row set.
        for s in [
            res.render_fig08(true),
            res.render_fig09(true),
            res.render_fig10(true),
            res.render_fig11(),
            res.render_tab03(),
        ] {
            assert!(s.contains("Masstree") && s.contains("Redis"), "{s}");
        }
    }
}
