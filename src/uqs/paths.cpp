#include "uqs/paths.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <vector>

#include "core/batch.h"
#include "runtime/scratch.h"

namespace sqs {

int PathsFamily::horizontal_edge(int r, int c) const {
  assert(r >= 0 && r <= l_ && c >= 0 && c < l_);
  return r * l_ + c;
}

int PathsFamily::vertical_edge(int r, int c) const {
  assert(r >= 0 && r < l_ && c >= 0 && c <= l_);
  return (l_ + 1) * l_ + r * (l_ + 1) + c;
}

std::string PathsFamily::name() const {
  return "Paths(l=" + std::to_string(l_) + ",k=" + std::to_string(universe_size()) + ")";
}

namespace {

// Vertex id in the (l+1) x (l+1) primal grid.
int vertex_id(int l, int r, int c) { return r * (l + 1) + c; }

// Dual node ids: cells (r,c) with r,c in [0,l-1], then TOP, then BOTTOM.
int cell_id(int l, int r, int c) { return r * l + c; }
int top_id(int l) { return l * l; }
int bottom_id(int l) { return l * l + 1; }

struct Move {
  int edge;  // server probed/traversed
  int to;    // neighbor node
};

// Primal moves from vertex (r,c), ordered right / vertical / left so the
// DFS heads for the right boundary. `flip` randomizes the up/down tie.
void primal_moves(const PathsFamily& ph, int r, int c, bool flip,
                  std::vector<Move>& out) {
  const int l = ph.l();
  out.clear();
  if (c < l) out.push_back({ph.horizontal_edge(r, c), vertex_id(l, r, c + 1)});
  const std::optional<Move> up =
      r > 0 ? std::optional<Move>({ph.vertical_edge(r - 1, c), vertex_id(l, r - 1, c)})
            : std::nullopt;
  const std::optional<Move> down =
      r < l ? std::optional<Move>({ph.vertical_edge(r, c), vertex_id(l, r + 1, c)})
            : std::nullopt;
  if (flip) {
    if (down) out.push_back(*down);
    if (up) out.push_back(*up);
  } else {
    if (up) out.push_back(*up);
    if (down) out.push_back(*down);
  }
  if (c > 0) out.push_back({ph.horizontal_edge(r, c - 1), vertex_id(l, r, c - 1)});
}

// Dual moves, ordered down / horizontal / up so the DFS heads for BOTTOM.
// Crossing a horizontal primal edge moves vertically between cells; crossing
// a vertical primal edge moves horizontally. TOP/BOTTOM attach above row 0
// and below row l-1.
void dual_moves(const PathsFamily& ph, int node, bool flip, std::vector<Move>& out) {
  const int l = ph.l();
  out.clear();
  if (node == top_id(l)) {
    for (int c = 0; c < l; ++c)
      out.push_back({ph.horizontal_edge(0, c), cell_id(l, 0, c)});
    return;
  }
  if (node == bottom_id(l)) {
    for (int c = 0; c < l; ++c)
      out.push_back({ph.horizontal_edge(l, c), cell_id(l, l - 1, c)});
    return;
  }
  const int r = node / l;
  const int c = node % l;
  // Down first (goal-directed).
  out.push_back({ph.horizontal_edge(r + 1, c),
                 r + 1 <= l - 1 ? cell_id(l, r + 1, c) : bottom_id(l)});
  const std::optional<Move> left =
      c > 0 ? std::optional<Move>({ph.vertical_edge(r, c), cell_id(l, r, c - 1)})
            : std::nullopt;
  const std::optional<Move> right =
      c < l - 1
          ? std::optional<Move>({ph.vertical_edge(r, c + 1), cell_id(l, r, c + 1)})
          : std::nullopt;
  if (flip) {
    if (right) out.push_back(*right);
    if (left) out.push_back(*left);
  } else {
    if (left) out.push_back(*left);
    if (right) out.push_back(*right);
  }
  out.push_back({ph.horizontal_edge(r, c),
                 r - 1 >= 0 ? cell_id(l, r - 1, c) : top_id(l)});
}

// Full-knowledge BFS used by accepts(); `edge_up` answers edge liveness.
// Scratch buffers are borrowed from the calling thread's arena: accepts()
// runs once per availability Monte Carlo trial, so per-call vectors would
// dominate the allocation profile of Paths availability sweeps.
template <typename MovesFn>
bool reachable(int num_nodes, const std::vector<int>& starts, int goal_lo,
               int goal_hi, const MovesFn& moves_of,
               const Configuration& config) {
  WorkerScratch& scratch = WorkerScratch::for_thread();
  Borrowed<std::vector<char>> visited = scratch.borrow<std::vector<char>>();
  Borrowed<std::vector<int>> frontier = scratch.borrow<std::vector<int>>();
  Borrowed<std::vector<Move>> moves = scratch.borrow<std::vector<Move>>();
  visited->assign(static_cast<std::size_t>(num_nodes), 0);
  *frontier = starts;
  for (int s : starts) (*visited)[static_cast<std::size_t>(s)] = 1;
  while (!frontier->empty()) {
    const int v = frontier->back();
    frontier->pop_back();
    if (v >= goal_lo && v <= goal_hi) return true;
    moves_of(v, *moves);
    for (const Move& m : *moves) {
      if ((*visited)[static_cast<std::size_t>(m.to)]) continue;
      if (!config.is_up(m.edge)) continue;
      (*visited)[static_cast<std::size_t>(m.to)] = 1;
      frontier->push_back(m.to);
    }
  }
  return false;
}

}  // namespace

bool PathsFamily::has_lr_path(const Configuration& config) const {
  const int l = l_;
  auto moves_of = [&](int v, std::vector<Move>& out) {
    primal_moves(*this, v / (l + 1), v % (l + 1), false, out);
  };
  // Goal: any vertex in column l. reachable() wants a contiguous goal range,
  // so run the BFS directly here with the same borrowed-scratch buffers.
  WorkerScratch& scratch = WorkerScratch::for_thread();
  Borrowed<std::vector<char>> visited = scratch.borrow<std::vector<char>>();
  Borrowed<std::vector<int>> frontier = scratch.borrow<std::vector<int>>();
  Borrowed<std::vector<Move>> moves = scratch.borrow<std::vector<Move>>();
  visited->assign(static_cast<std::size_t>((l + 1) * (l + 1)), 0);
  frontier->clear();
  for (int r = 0; r <= l; ++r) {
    const int s = vertex_id(l, r, 0);
    (*visited)[static_cast<std::size_t>(s)] = 1;
    frontier->push_back(s);
  }
  while (!frontier->empty()) {
    const int v = frontier->back();
    frontier->pop_back();
    if (v % (l + 1) == l) return true;
    moves_of(v, *moves);
    for (const Move& m : *moves) {
      if ((*visited)[static_cast<std::size_t>(m.to)]) continue;
      if (!config.is_up(m.edge)) continue;
      (*visited)[static_cast<std::size_t>(m.to)] = 1;
      frontier->push_back(m.to);
    }
  }
  return false;
}

bool PathsFamily::has_tb_dual_path(const Configuration& config) const {
  const int l = l_;
  auto moves_of = [&](int v, std::vector<Move>& out) {
    dual_moves(*this, v, false, out);
  };
  return reachable(l * l + 2, {top_id(l)}, bottom_id(l), bottom_id(l), moves_of,
                   config);
}

bool PathsFamily::accepts(const Configuration& config) const {
  return has_lr_path(config) && has_tb_dual_path(config);
}

namespace {

// One graph's move lists laid out flat (CSR): node v's moves are
// moves[offsets[v] .. offsets[v + 1]). `seeds` are the nodes a search
// starts from and goal[v] says whether v is in its target set.
struct ReachGraph {
  std::vector<int> offsets;
  std::vector<Move> moves;
  std::vector<int> seeds;
  std::vector<char> goal;

  template <typename MovesFn>
  void build(int num_nodes, const MovesFn& moves_of, std::vector<Move>& buf) {
    offsets.assign(1, 0);
    moves.clear();
    for (int v = 0; v < num_nodes; ++v) {
      moves_of(v, buf);
      moves.insert(moves.end(), buf.begin(), buf.end());
      offsets.push_back(static_cast<int>(moves.size()));
    }
    goal.assign(static_cast<std::size_t>(num_nodes), 0);
  }

  int num_nodes() const { return static_cast<int>(offsets.size()) - 1; }
};

// Lane-word reachability over G blocks of 64 trials at once: visited holds
// one lane word per node (visited[v * G + g] = block g's trials that
// reached v), and every relaxation advances all 64 * G trials (node v
// gains the lanes of a neighbour across an up edge; `up` is LaneColumns
// data). Both move graphs are symmetric (every move has its reverse), so
// v pulls from its own move list. Sweeps alternate forward and backward
// so a path running against one direction still spreads in the next pass.
//
// A lane is open until it reaches a goal node; then it is settled: it
// stops spreading and no longer keeps the sweeps going, and the search
// ends once no seeded lane is open or no open lane changes. `reached`
// gets the settled lanes. Exact, because reachability is a monotone
// fixpoint: a settled lane's verdict cannot change, and an open lane is
// relaxed exactly as without the exit, so it settles iff some goal is
// reachable. The scalar BFS above is the per-trial oracle this must agree
// with — same graph, same edge-liveness predicate.
template <int G>
[[gnu::always_inline]] inline void batch_reach(
    const ReachGraph& graph, const std::uint64_t* up,
    const typename LaneWords<G>::U& seed, std::uint64_t* visited,
    typename LaneWords<G>::U& reached) {
  using U = typename LaneWords<G>::U;
  const int num_nodes = graph.num_nodes();
  const int* offsets = graph.offsets.data();
  const Move* moves = graph.moves.data();
  const char* goal = graph.goal.data();
  std::fill(visited, visited + static_cast<std::size_t>(num_nodes) * G, 0);
  U open = seed;
  for (const int s : graph.seeds) {
    lanes_store<G>(visited + static_cast<std::size_t>(s) * G, seed);
    if (goal[s]) open = U{};
  }
  U changed = open;
  for (bool forward = true; lanes_any<G>(changed & open); forward = !forward) {
    changed = U{};
    for (int i = 0; i < num_nodes; ++i) {
      const int v = forward ? i : num_nodes - 1 - i;
      U cur = U{};
      lanes_load<G>(visited + static_cast<std::size_t>(v) * G, cur);
      U reach = cur;
      for (int k = offsets[v]; k < offsets[v + 1]; ++k) {
        U from = U{};
        U edge = U{};
        lanes_load<G>(visited + static_cast<std::size_t>(moves[k].to) * G, from);
        lanes_load<G>(up + static_cast<std::size_t>(moves[k].edge) * G, edge);
        reach |= from & edge;
      }
      const U gained = reach & ~cur & open;
      changed |= gained;
      lanes_store<G>(visited + static_cast<std::size_t>(v) * G, cur | gained);
      if (goal[v]) {
        open &= ~gained;
        if (!lanes_any<G>(open)) break;
      }
    }
  }
  reached = seed & ~open;
}

}  // namespace

struct PathsFamily::BatchGraphs {
  ReachGraph primal;
  ReachGraph dual;
};

PathsFamily::PathsFamily(int l) : l_(l) {
  assert(l >= 1);
  auto graphs = std::make_shared<BatchGraphs>();
  std::vector<Move> buf;
  // Left-right in the primal grid: seed column 0, goal column l.
  graphs->primal.build((l + 1) * (l + 1), [&](int v, std::vector<Move>& mv) {
    primal_moves(*this, v / (l + 1), v % (l + 1), false, mv);
  }, buf);
  for (int r = 0; r <= l; ++r) {
    graphs->primal.seeds.push_back(vertex_id(l, r, 0));
    graphs->primal.goal[static_cast<std::size_t>(vertex_id(l, r, l))] = 1;
  }
  // Top-bottom in the dual grid: seed TOP, goal BOTTOM.
  graphs->dual.build(l * l + 2, [&](int v, std::vector<Move>& mv) {
    dual_moves(*this, v, false, mv);
  }, buf);
  graphs->dual.seeds.push_back(top_id(l));
  graphs->dual.goal[static_cast<std::size_t>(bottom_id(l))] = 1;
  graphs_ = std::move(graphs);
}

namespace {

// accepts_lanes for G lanes: LR-reachability in the primal grid, then
// TB-reachability in the dual grid seeded only with the lanes that found
// a left-right path (the others reject whatever the dual says).
template <int G>
[[gnu::always_inline]] inline void paths_accepts_lanes(
    const ReachGraph& primal, const ReachGraph& dual,
    const LaneColumns& cols, std::uint64_t* visited, std::uint64_t* out) {
  using U = typename LaneWords<G>::U;
  U live = U{};
  lanes_load<G>(cols.live_masks(), live);
  U lr = U{};
  batch_reach<G>(primal, cols.data(), live, visited, lr);
  U accepted = U{};
  if (lanes_any<G>(lr)) batch_reach<G>(dual, cols.data(), lr, visited, accepted);
  lanes_store<G>(out, accepted);
}

[[gnu::target("avx512f")]] void paths_accepts_8(
    const ReachGraph& primal, const ReachGraph& dual, const LaneColumns& cols,
    std::uint64_t* visited, std::uint64_t* out) {
  paths_accepts_lanes<8>(primal, dual, cols, visited, out);
}

[[gnu::target("avx2")]] void paths_accepts_4(
    const ReachGraph& primal, const ReachGraph& dual, const LaneColumns& cols,
    std::uint64_t* visited, std::uint64_t* out) {
  paths_accepts_lanes<4>(primal, dual, cols, visited, out);
}

}  // namespace

void PathsFamily::accepts_lanes(const LaneColumns& cols,
                                std::uint64_t* out) const {
  assert(cols.universe_size() == universe_size());
  assert(rng_lanes_supported(cols.width()));
  const ReachGraph& primal = graphs_->primal;
  const ReachGraph& dual = graphs_->dual;
  Borrowed<std::vector<std::uint64_t>> visited =
      WorkerScratch::for_thread().borrow<std::vector<std::uint64_t>>();
  visited->resize(static_cast<std::size_t>(
                      std::max(primal.num_nodes(), dual.num_nodes())) *
                  static_cast<std::size_t>(cols.width()));
  switch (cols.width()) {
    case 8: paths_accepts_8(primal, dual, cols, visited->data(), out); break;
    case 4: paths_accepts_4(primal, dual, cols, visited->data(), out); break;
    default: paths_accepts_lanes<1>(primal, dual, cols, visited->data(), out);
  }
}

void PathsFamily::accepts_batch(const WorldBatch& worlds, Bitset& out) const {
  assert(worlds.universe_size() == universe_size());
  out.reshape(static_cast<std::size_t>(worlds.num_trials()));
  Borrowed<LaneColumns> cols =
      WorkerScratch::for_thread().borrow<LaneColumns>();
  const std::size_t words = worlds.num_lane_words();
  for (std::size_t w = 0; w < words;) {
    const int width = rng_lanes_for(static_cast<int>(
        std::min<std::size_t>(words - w, kMaxRngLanes)));
    cols->gather(worlds, w, width);
    std::uint64_t accepted[kMaxRngLanes] = {};
    accepts_lanes(*cols, accepted);
    for (int g = 0; g < width && w < words; ++g, ++w) out.set_word(w, accepted[g]);
  }
}

namespace {

// Lazy-probing DFS: probes an edge only when the search first wants to
// traverse it, reusing results across the primal and dual phases. Conclusive
// on failure (an exhausted DFS has probed the entire boundary of the
// reachable component).
class PathsStrategy : public ProbeStrategy {
 public:
  explicit PathsStrategy(PathsFamily family) : family_(std::move(family)) {
    reset(nullptr);
  }

  void reset(Rng* rng) override {
    rng_ = rng;
    const int l = family_.l();
    known_.assign(static_cast<std::size_t>(family_.universe_size()), std::nullopt);
    quorum_.reshape(family_.universe_size());
    status_ = ProbeStatus::kInProgress;
    pending_edge_ = -1;
    in_dual_ = false;

    primal_.reshape(static_cast<std::size_t>((l + 1) * (l + 1)));
    // starts_ is rebuilt with identical contents every reset, so reusing its
    // capacity leaves the shuffle's rng draws unchanged.
    starts_.clear();
    for (int r = 0; r <= l; ++r) starts_.push_back(vertex_id(l, r, 0));
    if (rng_ != nullptr) std::shuffle(starts_.begin(), starts_.end(), *rng_);
    for (int s : starts_) primal_.push_start(s);

    dual_.reshape(static_cast<std::size_t>(l * l + 2));
    dual_.push_start(top_id(l));

    advance();
  }

  int universe_size() const override { return family_.universe_size(); }
  ProbeStatus status() const override { return status_; }
  int next_server() const override { return pending_edge_; }

  void observe(int server, bool reached) override {
    assert(server == pending_edge_);
    known_[static_cast<std::size_t>(server)] = reached;
    advance();
  }

  SignedSet acquired_quorum() const override { return quorum_; }
  void acquired_quorum_into(SignedSet& out) const override { out = quorum_; }
  bool is_adaptive() const override { return true; }
  bool is_randomized() const override { return true; }

 private:
  struct Search {
    Search() = default;
    explicit Search(std::size_t num_nodes)
        : visited(num_nodes, 0),
          parent_node(num_nodes, -1),
          parent_edge(num_nodes, -1),
          move_index(num_nodes, 0),
          moves(num_nodes) {}

    void push_start(int node) {
      visited[static_cast<std::size_t>(node)] = 1;
      stack.push_back(node);
    }

    // Reinitializes to the freshly-constructed state while reusing every
    // buffer's capacity (including the per-node move lists).
    void reshape(std::size_t num_nodes) {
      visited.assign(num_nodes, 0);
      parent_node.assign(num_nodes, -1);
      parent_edge.assign(num_nodes, -1);
      move_index.assign(num_nodes, 0);
      if (moves.size() != num_nodes) moves.resize(num_nodes);
      for (auto& mv : moves) mv.clear();
      stack.clear();
    }

    std::vector<char> visited;
    std::vector<int> parent_node;
    std::vector<int> parent_edge;
    std::vector<std::size_t> move_index;
    std::vector<std::vector<Move>> moves;
    std::vector<int> stack;
    bool moves_built(int v) const { return !moves[static_cast<std::size_t>(v)].empty() || move_index[static_cast<std::size_t>(v)] > 0; }
  };

  bool is_primal_goal(int v) const { return v % (family_.l() + 1) == family_.l(); }
  bool is_dual_goal(int v) const { return v == bottom_id(family_.l()); }

  void build_moves(Search& s, int v) {
    auto& mv = s.moves[static_cast<std::size_t>(v)];
    const bool flip = rng_ != nullptr && rng_->bernoulli(0.5);
    if (in_dual_) {
      dual_moves(family_, v, flip, mv);
      // TOP/BOTTOM fan out over all columns with equal priority; shuffle so
      // the entry column is uniform (otherwise column 0 carries load 1).
      if ((v == top_id(family_.l()) || v == bottom_id(family_.l())) &&
          rng_ != nullptr) {
        std::shuffle(mv.begin(), mv.end(), *rng_);
      }
    } else {
      primal_moves(family_, v / (family_.l() + 1), v % (family_.l() + 1), flip, mv);
    }
  }

  // Runs the current DFS until it needs a probe or the acquisition resolves.
  void advance() {
    pending_edge_ = -1;
    while (status_ == ProbeStatus::kInProgress) {
      Search& s = in_dual_ ? dual_ : primal_;
      if (s.stack.empty()) {
        status_ = ProbeStatus::kNoQuorum;
        return;
      }
      const int v = s.stack.back();
      if (!s.moves_built(v)) build_moves(s, v);
      auto& idx = s.move_index[static_cast<std::size_t>(v)];
      const auto& mv = s.moves[static_cast<std::size_t>(v)];
      bool pushed = false;
      while (idx < mv.size()) {
        const Move m = mv[idx];
        if (s.visited[static_cast<std::size_t>(m.to)]) {
          ++idx;
          continue;
        }
        const auto& k = known_[static_cast<std::size_t>(m.edge)];
        if (!k.has_value()) {
          pending_edge_ = m.edge;
          return;  // probe needed; idx stays on this move
        }
        ++idx;
        if (!*k) continue;  // dead edge
        s.visited[static_cast<std::size_t>(m.to)] = 1;
        s.parent_node[static_cast<std::size_t>(m.to)] = v;
        s.parent_edge[static_cast<std::size_t>(m.to)] = m.edge;
        s.stack.push_back(m.to);
        if ((!in_dual_ && is_primal_goal(m.to)) || (in_dual_ && is_dual_goal(m.to))) {
          finish_phase(s, m.to);
        }
        pushed = true;
        break;
      }
      if (!pushed && pending_edge_ < 0 && status_ == ProbeStatus::kInProgress &&
          idx >= mv.size()) {
        s.stack.pop_back();
      }
    }
  }

  // Records the found path's edges into the quorum and moves to the next
  // phase (or terminates).
  void finish_phase(Search& s, int goal) {
    int v = goal;
    while (s.parent_edge[static_cast<std::size_t>(v)] >= 0) {
      quorum_.add_positive(s.parent_edge[static_cast<std::size_t>(v)]);
      v = s.parent_node[static_cast<std::size_t>(v)];
    }
    if (!in_dual_) {
      in_dual_ = true;
    } else {
      status_ = ProbeStatus::kAcquired;
    }
  }

  PathsFamily family_{1};
  Rng* rng_ = nullptr;
  std::vector<std::optional<bool>> known_;
  SignedSet quorum_{0};
  Search primal_;
  Search dual_;
  std::vector<int> starts_;
  bool in_dual_ = false;
  int pending_edge_ = -1;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

}  // namespace

std::unique_ptr<ProbeStrategy> PathsFamily::make_probe_strategy() const {
  return std::make_unique<PathsStrategy>(*this);
}

}  // namespace sqs
