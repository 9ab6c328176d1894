//! Strongly connected components of the copy-edge graph.
//!
//! The solver periodically runs an iterative Tarjan pass over its
//! canonicalized subset edges and union-find-merges every multi-member
//! component it finds: nodes in a copy cycle provably converge to the
//! same points-to set, so propagating around the cycle is pure overhead.
//! The jQuery-like corpus's copy graphs are acyclic, so its solves pay
//! for the passes and merge nothing; the inputs with cycles are the
//! crafted copy rings of the tests that solve with `scc_interval: 1`
//! (`tests/pta_equivalence.rs`, `tests/pta_stats.rs`). Only the
//! detection lives here; the merging is the solver's.

/// Returns the strongly connected components of `adj` (vertices are
/// `0..adj.len()`, `adj[v]` the successors of `v`) that have more than
/// one member. Components and their members come out in deterministic
/// order: members ascending, components ordered by their smallest
/// member. Self-loops and duplicate edges are tolerated.
pub fn multi_member_sccs(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = adj.len();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut frames: Vec<(u32, usize)> = Vec::new();
    let mut next = 0u32;
    let mut out: Vec<Vec<u32>> = Vec::new();

    for start in 0..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        index[start as usize] = next;
        low[start as usize] = next;
        next += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        frames.push((start, 0));
        while let Some(&(v, ci)) = frames.last() {
            if ci < adj[v as usize].len() {
                frames.last_mut().expect("frame just read").1 += 1;
                let w = adj[v as usize][ci];
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next;
                    low[w as usize] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("root still on stack");
                        on_stack[w as usize] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 {
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_has_no_components() {
        let adj = vec![vec![1, 2], vec![2], vec![]];
        assert!(multi_member_sccs(&adj).is_empty());
    }

    #[test]
    fn self_loops_are_not_components() {
        let adj = vec![vec![0], vec![1, 0]];
        assert!(multi_member_sccs(&adj).is_empty());
    }

    #[test]
    fn finds_simple_cycle() {
        // 0 → 1 → 2 → 0, plus a tail 2 → 3.
        let adj = vec![vec![1], vec![2], vec![0, 3], vec![]];
        assert_eq!(multi_member_sccs(&adj), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn finds_multiple_components_deterministically() {
        // Two cycles {0,1} and {3,4}, bridged 1 → 3; 2 and 5 on the side.
        let adj = vec![vec![1], vec![0, 3], vec![0], vec![4], vec![3, 5], vec![]];
        assert_eq!(multi_member_sccs(&adj), vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn nested_cycles_collapse_to_one_component() {
        // 0↔1 and 1↔2 share node 1 → one component {0,1,2}; duplicate
        // edges tolerated.
        let adj = vec![vec![1, 1], vec![0, 2], vec![1]];
        assert_eq!(multi_member_sccs(&adj), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // A 100k-node cycle exercises the explicit-stack DFS.
        let n = 100_000u32;
        let adj: Vec<Vec<u32>> = (0..n).map(|v| vec![(v + 1) % n]).collect();
        let comps = multi_member_sccs(&adj);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), n as usize);
    }
}
