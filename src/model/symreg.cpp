#include "model/symreg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace picp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Individual {
  Expr expr;
  double fitness = kInf;  // MAPE + parsimony; lower is better
  double scale = 0.0;
  double offset = 0.0;
};

class GpEngine {
 public:
  GpEngine(const Dataset& data, const SymRegParams& params)
      : data_(data), params_(params), rng_(params.seed),
        pool_(params.threads) {
    num_vars_ = static_cast<int>(data.num_features());
  }

  Individual run() {
    std::vector<Individual> population(params_.population);
    for (auto& ind : population) ind.expr = random_tree(rng_, 3);
    evaluate_all(population);
    Individual best = best_of(population);

    for (std::size_t gen = 0; gen < params_.generations; ++gen) {
      std::vector<Individual> next;
      next.reserve(population.size());
      next.push_back(best);  // elitism
      while (next.size() < population.size()) {
        Individual child;
        if (rng_.uniform() < params_.crossover_rate) {
          child.expr = crossover(tournament(population).expr,
                                 tournament(population).expr);
        } else {
          child.expr = tournament(population).expr;
        }
        if (rng_.uniform() < params_.mutation_rate) mutate(child.expr);
        if (child.expr.size() > params_.max_nodes ||
            child.expr.depth() > params_.max_depth)
          child.expr = tournament(population).expr;  // reject oversized
        next.push_back(std::move(child));
      }
      population = std::move(next);
      evaluate_all(population);
      const Individual gen_best = best_of(population);
      if (gen_best.fitness < best.fitness) best = gen_best;
      if (best_mape_ < params_.target_mape) break;
    }
    return best;
  }

 private:
  // --- random trees --------------------------------------------------------

  ExprNode random_terminal(Xoshiro256& rng) const {
    ExprNode node;
    if (num_vars_ > 0 && rng.uniform() < 0.7) {
      node.op = Op::kVar;
      node.var = static_cast<int>(
          rng.uniform_below(static_cast<std::uint64_t>(num_vars_)));
    } else {
      node.op = Op::kConst;
      // Log-uniform around 1; linear scaling absorbs the global magnitude.
      node.value = std::pow(10.0, rng.uniform(-1.5, 1.5));
    }
    return node;
  }

  ExprNode random_function(Xoshiro256& rng) const {
    static constexpr Op kFunctions[] = {Op::kAdd, Op::kSub, Op::kMul,
                                        Op::kMul, Op::kDiv, Op::kSqrt,
                                        Op::kSquare};
    ExprNode node;
    node.op = kFunctions[rng.uniform_below(std::size(kFunctions))];
    return node;
  }

  void grow(Xoshiro256& rng, Expr& expr, int depth_left) {
    if (depth_left <= 1 || rng.uniform() < 0.3) {
      expr.nodes.push_back(random_terminal(rng));
      return;
    }
    const ExprNode fn = random_function(rng);
    expr.nodes.push_back(fn);
    for (int c = 0; c < arity(fn.op); ++c) grow(rng, expr, depth_left - 1);
  }

  Expr random_tree(Xoshiro256& rng, int max_depth) {
    Expr expr;
    grow(rng, expr, max_depth);
    return expr;
  }

  // --- variation -----------------------------------------------------------

  const Individual& tournament(const std::vector<Individual>& population) {
    const Individual* best = nullptr;
    for (std::size_t k = 0; k < params_.tournament; ++k) {
      const Individual& cand =
          population[rng_.uniform_below(population.size())];
      if (best == nullptr || cand.fitness < best->fitness) best = &cand;
    }
    return *best;
  }

  Expr crossover(const Expr& a, const Expr& b) {
    const std::size_t pa = rng_.uniform_below(a.size());
    const std::size_t pb = rng_.uniform_below(b.size());
    const std::size_t ea = a.subtree_end(pa);
    const std::size_t eb = b.subtree_end(pb);
    Expr child;
    child.nodes.reserve(a.size() - (ea - pa) + (eb - pb));
    child.nodes.insert(child.nodes.end(), a.nodes.begin(),
                       a.nodes.begin() + static_cast<std::ptrdiff_t>(pa));
    child.nodes.insert(child.nodes.end(),
                       b.nodes.begin() + static_cast<std::ptrdiff_t>(pb),
                       b.nodes.begin() + static_cast<std::ptrdiff_t>(eb));
    child.nodes.insert(child.nodes.end(),
                       a.nodes.begin() + static_cast<std::ptrdiff_t>(ea),
                       a.nodes.end());
    return child;
  }

  void mutate(Expr& expr) {
    const double kind = rng_.uniform();
    if (kind < 0.4) {
      // Subtree replacement.
      const std::size_t p = rng_.uniform_below(expr.size());
      const std::size_t e = expr.subtree_end(p);
      Expr sub = random_tree(rng_, 2);
      Expr out;
      out.nodes.insert(out.nodes.end(), expr.nodes.begin(),
                       expr.nodes.begin() + static_cast<std::ptrdiff_t>(p));
      out.nodes.insert(out.nodes.end(), sub.nodes.begin(), sub.nodes.end());
      out.nodes.insert(out.nodes.end(),
                       expr.nodes.begin() + static_cast<std::ptrdiff_t>(e),
                       expr.nodes.end());
      expr = std::move(out);
    } else if (kind < 0.8) {
      // Constant jitter (or terminal retype when no constant exists).
      for (ExprNode& node : expr.nodes)
        if (node.op == Op::kConst && rng_.uniform() < 0.5)
          node.value *= std::pow(2.0, rng_.uniform(-1.0, 1.0));
    } else {
      // Point mutation of one node, arity-preserving.
      ExprNode& node = expr.nodes[rng_.uniform_below(expr.size())];
      if (arity(node.op) == 0) {
        node = random_terminal(rng_);
      } else if (arity(node.op) == 2) {
        static constexpr Op kBinary[] = {Op::kAdd, Op::kSub, Op::kMul,
                                         Op::kDiv};
        node.op = kBinary[rng_.uniform_below(std::size(kBinary))];
      } else {
        node.op = node.op == Op::kSqrt ? Op::kSquare : Op::kSqrt;
      }
    }
  }

  // --- fitness --------------------------------------------------------------

  void evaluate_all(std::vector<Individual>& population) {
    parallel_for(&pool_, population.size(), /*grain=*/2,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i)
                     evaluate_one(population[i]);
                 });
    best_mape_ = kInf;
    for (const Individual& ind : population) {
      if (!std::isfinite(ind.fitness)) continue;
      const double m = ind.fitness - params_.parsimony *
                                         static_cast<double>(ind.expr.size());
      best_mape_ = std::min(best_mape_, m);
    }
  }

  void evaluate_one(Individual& ind) const {
    const std::size_t n = data_.size();
    std::vector<double> e(n);
    for (std::size_t i = 0; i < n; ++i) {
      e[i] = ind.expr.evaluate(data_.row(i));
      if (!std::isfinite(e[i])) {
        ind.fitness = kInf;
        return;
      }
    }
    // Linear scaling: t ≈ a·e + b by least squares.
    double mean_e = 0.0, mean_y = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mean_e += e[i];
      mean_y += data_.target(i);
    }
    mean_e /= static_cast<double>(n);
    mean_y /= static_cast<double>(n);
    double cov = 0.0, var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cov += (e[i] - mean_e) * (data_.target(i) - mean_y);
      var += (e[i] - mean_e) * (e[i] - mean_e);
    }
    const double a = var > 1e-300 ? cov / var : 0.0;
    const double b = mean_y - a * mean_e;
    for (double& v : e) v = a * v + b;
    const double err = mape(data_.targets(), e);
    if (!std::isfinite(err)) {
      ind.fitness = kInf;
      return;
    }
    ind.scale = a;
    ind.offset = b;
    ind.fitness =
        err + params_.parsimony * static_cast<double>(ind.expr.size());
  }

  static Individual best_of(const std::vector<Individual>& population) {
    const auto it = std::min_element(
        population.begin(), population.end(),
        [](const Individual& a, const Individual& b) {
          return a.fitness < b.fitness;
        });
    return *it;
  }

  const Dataset& data_;
  SymRegParams params_;
  Xoshiro256 rng_;
  ThreadPool pool_;
  int num_vars_ = 0;
  double best_mape_ = kInf;
};

}  // namespace

SymbolicModel::SymbolicModel(Expr expr, double scale, double offset,
                             std::vector<std::string> feature_names)
    : expr_(std::move(expr)),
      scale_(scale),
      offset_(offset),
      feature_names_(std::move(feature_names)) {}

double SymbolicModel::evaluate(std::span<const double> features) const {
  return scale_ * expr_.evaluate(features) + offset_;
}

std::string SymbolicModel::describe() const {
  std::ostringstream os;
  os.precision(6);
  os << scale_ << " * [" << expr_.to_string(feature_names_) << "] + "
     << offset_;
  return os.str();
}

std::string SymbolicModel::serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "sym " << scale_ << ' ' << offset_ << ' ' << expr_.to_tokens();
  return os.str();
}

std::unique_ptr<PerfModel> SymbolicModel::clone() const {
  return std::make_unique<SymbolicModel>(*this);
}

SymbolicModel fit_symbolic(const Dataset& data, const SymRegParams& params) {
  PICP_REQUIRE(!data.empty(), "cannot fit on empty dataset");
  PICP_REQUIRE(params.population >= 2, "population must be >= 2");
  GpEngine engine(data, params);
  const auto best = engine.run();
  PICP_LOG_DEBUG << "symreg best fitness " << best.fitness << ": "
                 << best.expr.to_tokens();
  return SymbolicModel(best.expr, best.scale, best.offset,
                       data.feature_names());
}

}  // namespace picp
