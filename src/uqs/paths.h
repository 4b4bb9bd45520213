// The Paths quorum system PH(l) (Naor–Wieder 2003 / Naor–Wool 1998).
//
// Servers are the edges of an (l+1) x (l+1) vertex grid (2l(l+1) servers; the
// paper counts 2l^2+2l+1 — one extra bookkeeping element we do not need). Each
// grid edge is simultaneously a *primal* edge and (conceptually paired with)
// the dual-grid edge that crosses it. A quorum is
//
//     (edges of a left-right path in the primal grid)
//   ∪ (edges crossed by a top-bottom path in the dual grid),
//
// and any LR curve must cross any TB curve, so any two quorums share a
// server: a strict quorum system. For p < 1/2 percolation gives
// 1 - Avail = O(e^-l), quorum size Theta(l), load O(1/l) and adaptive probe
// complexity O(l) — the properties quoted in Theorem 45 and used by the
// composition results (Corollary 46).

#pragma once

#include <memory>
#include <string>

#include "core/quorum_family.h"

namespace sqs {

class PathsFamily : public QuorumFamily {
 public:
  explicit PathsFamily(int l);

  int l() const { return l_; }

  // --- grid geometry (exposed for tests) ---
  // Horizontal edge between vertices (r,c) and (r,c+1); r in [0,l], c in [0,l-1].
  int horizontal_edge(int r, int c) const;
  // Vertical edge between vertices (r,c) and (r+1,c); r in [0,l-1], c in [0,l].
  int vertical_edge(int r, int c) const;

  std::string name() const override;
  int universe_size() const override { return 2 * l_ * (l_ + 1); }
  int alpha() const override { return 0; }
  bool is_strict() const override { return true; }
  // Live quorum exists iff a live LR path exists in the primal grid AND a
  // live TB path exists in the dual grid (both BFS over up servers).
  bool accepts(const Configuration& config) const override;
  // Reachability over 64-trial lane words: visited[node] is a lane word and
  // every edge relaxation advances all trials of the word at once. The
  // primal and dual move lists are laid out flat once per family (the
  // lane samplers call this once per 64-trial block) and relaxed to
  // fixpoint in alternating forward/backward sweeps; accepts =
  // LR-reachability AND TB-dual-reachability lanes.
  void accepts_batch(const WorldBatch& worlds, Bitset& out) const override;
  // The straight-line quorum: l horizontal edges (an LR row) + l+1 horizontal
  // edges crossed by a TB dual path, sharing one server.
  int min_quorum_size() const override { return 2 * l_; }
  std::unique_ptr<ProbeStrategy> make_probe_strategy() const override;

  // True if `config` contains a live left-right path in the primal grid
  // (used by tests and by accepts()).
  bool has_lr_path(const Configuration& config) const;
  // True if `config` contains a live top-bottom path in the dual grid.
  bool has_tb_dual_path(const Configuration& config) const;

 private:
  struct BatchGraphs;

  int l_;
  // accepts_batch's flat primal and dual move lists, built by the
  // constructor; immutable, so copies share them.
  std::shared_ptr<const BatchGraphs> graphs_;
};

}  // namespace sqs
