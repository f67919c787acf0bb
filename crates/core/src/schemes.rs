//! The routing-scheme feature matrix of Table I.
//!
//! Encodes, as data, the paper's comparison of path-diversity support
//! across routing schemes and architectures, and renders it as a text
//! table (the `table1` experiment harness).

/// Degree of support for one path-diversity aspect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Support {
    /// Full support (👍 in the paper).
    Yes,
    /// Limited support.
    Limited,
    /// No support.
    No,
    /// Offered only for resilience, not performance (superscript R).
    Resilience,
    /// Offered only within spanning trees (superscript S).
    SpanningTree,
    /// Limited *and* spanning-tree-restricted.
    LimitedSpanningTree,
}

impl Support {
    /// Compact cell text.
    fn cell(self) -> &'static str {
        match self {
            Support::Yes => "Y",
            Support::Limited => "~",
            Support::No => "-",
            Support::Resilience => "R",
            Support::SpanningTree => "S",
            Support::LimitedSpanningTree => "~S",
        }
    }
}

/// One row of Table I.
#[derive(Clone, Copy, Debug)]
struct SchemeRow {
    /// Scheme name (and reference, where it disambiguates).
    name: &'static str,
    /// TCP/IP stack layer(s).
    stack_layer: &'static str,
    /// Arbitrary shortest paths.
    sp: Support,
    /// Non-minimal paths.
    np: Support,
    /// Simultaneous minimal + non-minimal.
    sm: Support,
    /// Multi-pathing between two hosts.
    mp: Support,
    /// Disjoint paths.
    dp: Support,
    /// Adaptive load balancing.
    alb: Support,
    /// Arbitrary topology.
    at: Support,
}

/// The full Table I dataset.
fn table_i() -> Vec<SchemeRow> {
    use Support::*;
    vec![
        SchemeRow {
            name: "Valiant (VLB)",
            stack_layer: "L2-L3",
            sp: No,
            np: Yes,
            sm: No,
            mp: No,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "Spanning Tree (ST)",
            stack_layer: "L2",
            sp: SpanningTree,
            np: SpanningTree,
            sm: No,
            mp: No,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "Simple routing (OSPF etc.)",
            stack_layer: "L2,L3",
            sp: Yes,
            np: No,
            sm: No,
            mp: No,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "UGAL",
            stack_layer: "L2-L3",
            sp: Yes,
            np: Yes,
            sm: No,
            mp: No,
            dp: No,
            alb: Yes,
            at: Yes,
        },
        SchemeRow {
            name: "ECMP / OMP / Pkt. Spraying",
            stack_layer: "L2,L3",
            sp: Yes,
            np: No,
            sm: No,
            mp: Yes,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "DCell",
            stack_layer: "L2-L3",
            sp: No,
            np: Yes,
            sm: No,
            mp: No,
            dp: No,
            alb: No,
            at: No,
        },
        SchemeRow {
            name: "Monsoon",
            stack_layer: "L2,L3",
            sp: Limited,
            np: Limited,
            sm: No,
            mp: Limited,
            dp: No,
            alb: No,
            at: No,
        },
        SchemeRow {
            name: "PortLand",
            stack_layer: "L2",
            sp: Yes,
            np: No,
            sm: No,
            mp: Yes,
            dp: No,
            alb: No,
            at: No,
        },
        SchemeRow {
            name: "DRILL / LocalFlow / DRB",
            stack_layer: "L2",
            sp: Yes,
            np: No,
            sm: No,
            mp: Yes,
            dp: No,
            alb: Yes,
            at: No,
        },
        SchemeRow {
            name: "VL2",
            stack_layer: "L3",
            sp: Yes,
            np: No,
            sm: No,
            mp: Yes,
            dp: No,
            alb: Limited,
            at: No,
        },
        SchemeRow {
            name: "Al-Fares et al.",
            stack_layer: "L2-L3",
            sp: Yes,
            np: No,
            sm: No,
            mp: Yes,
            dp: Yes,
            alb: Yes,
            at: No,
        },
        SchemeRow {
            name: "BCube",
            stack_layer: "L2-L3",
            sp: Yes,
            np: No,
            sm: No,
            mp: Yes,
            dp: Yes,
            alb: No,
            at: No,
        },
        SchemeRow {
            name: "SEATTLE et al.",
            stack_layer: "L2",
            sp: Yes,
            np: No,
            sm: No,
            mp: No,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "VIRO",
            stack_layer: "L2-L3",
            sp: SpanningTree,
            np: SpanningTree,
            sm: No,
            mp: No,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "Ethernet on Air",
            stack_layer: "L2",
            sp: SpanningTree,
            np: SpanningTree,
            sm: No,
            mp: Resilience,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "PAST",
            stack_layer: "L2",
            sp: LimitedSpanningTree,
            np: LimitedSpanningTree,
            sm: No,
            mp: No,
            dp: Yes,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "MLAG / MC-LAG",
            stack_layer: "L2",
            sp: Limited,
            np: Limited,
            sm: No,
            mp: Resilience,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "MOOSE",
            stack_layer: "L2",
            sp: Yes,
            np: No,
            sm: No,
            mp: No,
            dp: Limited,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "MPA",
            stack_layer: "L3",
            sp: Yes,
            np: Yes,
            sm: No,
            mp: Yes,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "AMP",
            stack_layer: "L3",
            sp: Yes,
            np: No,
            sm: No,
            mp: Yes,
            dp: No,
            alb: Yes,
            at: Yes,
        },
        SchemeRow {
            name: "MSTP / GOE / Viking",
            stack_layer: "L2",
            sp: SpanningTree,
            np: SpanningTree,
            sm: No,
            mp: Yes,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "SPB / TRILL / Shadow MACs",
            stack_layer: "L2",
            sp: Yes,
            np: Resilience,
            sm: No,
            mp: Yes,
            dp: No,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "SPAIN",
            stack_layer: "L2",
            sp: LimitedSpanningTree,
            np: LimitedSpanningTree,
            sm: LimitedSpanningTree,
            mp: Yes,
            dp: Yes,
            alb: No,
            at: Yes,
        },
        SchemeRow {
            name: "XPath",
            stack_layer: "L3",
            sp: Yes,
            np: Limited,
            sm: Limited,
            mp: Yes,
            dp: Yes,
            alb: Limited,
            at: Yes,
        },
        SchemeRow {
            name: "Source routing (Jyothi et al.)",
            stack_layer: "L3",
            sp: Yes,
            np: Resilience,
            sm: Resilience,
            mp: No,
            dp: No,
            alb: No,
            at: Limited,
        },
        SchemeRow {
            name: "FatPaths [this work]",
            stack_layer: "L2-L3",
            sp: Yes,
            np: Yes,
            sm: Yes,
            mp: Yes,
            dp: Yes,
            alb: Yes,
            at: Yes,
        },
    ]
}

/// Renders Table I as fixed-width text.
pub fn render_table_i() -> String {
    let rows = table_i();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34}{:<8}{:>4}{:>4}{:>4}{:>4}{:>4}{:>5}{:>4}\n",
        "Scheme", "Layer", "SP", "NP", "SM", "MP", "DP", "ALB", "AT"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34}{:<8}{:>4}{:>4}{:>4}{:>4}{:>4}{:>5}{:>4}\n",
            r.name,
            r.stack_layer,
            r.sp.cell(),
            r.np.cell(),
            r.sm.cell(),
            r.mp.cell(),
            r.dp.cell(),
            r.alb.cell(),
            r.at.cell()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fatpaths_is_the_only_full_row() {
        let rows = table_i();
        let full = |r: &SchemeRow| {
            [r.sp, r.np, r.sm, r.mp, r.dp, r.alb, r.at]
                .iter()
                .all(|&s| s == Support::Yes)
        };
        let full_rows: Vec<&str> = rows.iter().filter(|r| full(r)).map(|r| r.name).collect();
        assert_eq!(full_rows, vec!["FatPaths [this work]"]);
    }

    #[test]
    fn table_contains_all_baselines_we_implement() {
        let rows = table_i();
        for needle in ["SPAIN", "PAST", "ECMP", "Valiant"] {
            assert!(
                rows.iter().any(|r| r.name.contains(needle)),
                "{needle} missing from Table I"
            );
        }
    }

    #[test]
    fn render_is_aligned() {
        let text = render_table_i();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), table_i().len() + 1);
        // All lines the same width (fixed columns).
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
    }
}
