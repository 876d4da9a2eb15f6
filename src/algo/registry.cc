#include "algo/registry.h"

#include <sstream>

#include "algo/baselines.h"
#include "algo/exact.h"
#include "algo/game.h"
#include "algo/greedy.h"
#include "algo/heuristics.h"
#include "algo/local_search.h"

namespace dasc::algo {

util::Result<std::unique_ptr<core::Allocator>> CreateAllocator(
    const std::string& name, uint64_t seed) {
  if (name == "greedy") {
    return std::unique_ptr<core::Allocator>(new GreedyAllocator());
  }
  if (name == "greedy-hk") {
    GreedyOptions options;
    options.backend = GreedyOptions::MatchingBackend::kHopcroftKarp;
    return std::unique_ptr<core::Allocator>(new GreedyAllocator(options));
  }
  if (name == "greedy-auction") {
    GreedyOptions options;
    options.backend = GreedyOptions::MatchingBackend::kAuction;
    return std::unique_ptr<core::Allocator>(new GreedyAllocator(options));
  }
  if (name == "greedy-ls") {
    return std::unique_ptr<core::Allocator>(new LocalSearchAllocator(
        std::unique_ptr<core::Allocator>(new GreedyAllocator())));
  }
  if (name == "game") {
    GameOptions options;
    options.seed = seed;
    return std::unique_ptr<core::Allocator>(new GameAllocator(options));
  }
  if (name == "game5") {
    GameOptions options;
    options.threshold = 0.05;
    options.seed = seed;
    return std::unique_ptr<core::Allocator>(new GameAllocator(options));
  }
  if (name == "gg") {
    GameOptions options;
    options.greedy_init = true;
    options.seed = seed;
    return std::unique_ptr<core::Allocator>(new GameAllocator(options));
  }
  if (name == "closest") {
    return std::unique_ptr<core::Allocator>(new ClosestAllocator());
  }
  if (name == "maxmatch") {
    return std::unique_ptr<core::Allocator>(new MaxMatchingAllocator());
  }
  if (name == "urgency") {
    return std::unique_ptr<core::Allocator>(new UrgencyAllocator());
  }
  if (name == "random") {
    return std::unique_ptr<core::Allocator>(new RandomAllocator(seed));
  }
  if (name == "dfs") {
    ExactOptions options;
    options.time_limit_seconds = 60.0;
    return std::unique_ptr<core::Allocator>(new ExactAllocator(options));
  }
  return util::Status::NotFound("unknown allocator: " + name);
}

util::Result<std::vector<std::unique_ptr<core::Allocator>>> CreateAllocators(
    const std::string& names, uint64_t seed) {
  std::vector<std::unique_ptr<core::Allocator>> allocators;
  std::stringstream stream(names);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    auto allocator = CreateAllocator(token, seed);
    if (!allocator.ok()) return allocator.status();
    allocators.push_back(std::move(*allocator));
  }
  return allocators;
}

std::vector<std::string> KnownAllocatorNames() {
  return {"greedy",  "greedy-hk", "greedy-auction", "greedy-ls",
          "game",    "game5",     "gg",             "closest",
          "random",  "maxmatch",  "urgency",        "dfs"};
}

}  // namespace dasc::algo
