// Tests for the observability substrate: metrics registry semantics,
// histogram bucketing, Prometheus/JSONL exposition, concurrency under
// ParallelFor (also compiled into metrics_test_tsan), and span tracing.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/tracing.h"

namespace dasc::util {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(2.5);
  gauge.Set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

HistogramOptions SmallOptions() {
  // Bounds: 1, 2, 4 (+Inf overflow).
  return HistogramOptions{.start = 1.0, .growth = 2.0, .num_buckets = 3};
}

TEST(HistogramTest, BucketEdgesUseLeSemantics) {
  Histogram histogram(SmallOptions());
  histogram.Observe(0.5);  // <= 1
  histogram.Observe(1.0);  // == bound -> le bucket 1 (Prometheus semantics)
  histogram.Observe(1.5);  // <= 2
  histogram.Observe(2.0);  // == bound
  histogram.Observe(4.0);  // == last finite bound
  histogram.Observe(5.0);  // overflow
  const HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  ASSERT_EQ(snapshot.counts, (std::vector<int64_t>{2, 2, 1, 1}));
  EXPECT_EQ(snapshot.count, 6);
  EXPECT_DOUBLE_EQ(snapshot.sum, 14.0);
  EXPECT_EQ(histogram.count(), 6);
}

TEST(HistogramTest, ResetZeroesCountsAndSum) {
  Histogram histogram(SmallOptions());
  histogram.Observe(3.0);
  histogram.Reset();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0);
  EXPECT_EQ(snapshot.sum, 0.0);
}

TEST(HistogramTest, QuantileReturnsBucketUpperBound) {
  Histogram histogram(SmallOptions());
  for (int i = 0; i < 8; ++i) histogram.Observe(0.5);  // bucket le=1
  for (int i = 0; i < 2; ++i) histogram.Observe(3.0);  // bucket le=4
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(HistogramQuantile(snapshot, 0.5), 1.0);
  EXPECT_EQ(HistogramQuantile(snapshot, 0.95), 4.0);
  // Overflow samples clamp to the largest finite bound.
  Histogram overflow(SmallOptions());
  overflow.Observe(100.0);
  EXPECT_EQ(HistogramQuantile(overflow.Snapshot(), 1.0), 4.0);
  // Empty histogram.
  Histogram empty(SmallOptions());
  EXPECT_EQ(HistogramQuantile(empty.Snapshot(), 0.5), 0.0);
}

TEST(MetricsRegistryTest, SameNameSamePointer) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("a");
  Counter* c2 = registry.GetCounter("a");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.GetCounter("b"), c1);
  Gauge* g1 = registry.GetGauge("a");  // separate namespace from counters
  EXPECT_EQ(registry.GetGauge("a"), g1);
  Histogram* h1 = registry.GetHistogram("h", SmallOptions());
  // First registration wins: later options are ignored.
  Histogram* h2 = registry.GetHistogram(
      "h", HistogramOptions{.start = 100.0, .growth = 10.0, .num_buckets = 1});
  EXPECT_EQ(h1, h2);
  h1->Observe(0.5);
  EXPECT_EQ(h1->Snapshot().bounds.size(), 3u);
}

TEST(MetricsRegistryTest, ResetKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hits");
  counter->Increment(7);
  Gauge* gauge = registry.GetGauge("depth");
  gauge->Set(3.0);
  Histogram* histogram = registry.GetHistogram("lat", SmallOptions());
  histogram->Observe(1.0);
  registry.Reset();
  // Same objects, zeroed values — cached macro pointers stay usable.
  EXPECT_EQ(registry.GetCounter("hits"), counter);
  EXPECT_EQ(counter->value(), 0);
  EXPECT_EQ(gauge->value(), 0.0);
  EXPECT_EQ(histogram->count(), 0);
  counter->Increment();
  EXPECT_EQ(registry.GetCounter("hits")->value(), 1);
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total")->Increment(3);
  registry.GetGauge("queue_depth")->Set(1.5);
  Histogram* histogram = registry.GetHistogram("latency", SmallOptions());
  histogram->Observe(0.5);
  histogram->Observe(3.0);
  histogram->Observe(99.0);
  std::ostringstream out;
  registry.WritePrometheus(out);
  EXPECT_EQ(out.str(),
            "# TYPE requests_total counter\n"
            "requests_total 3\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 1.5\n"
            "# TYPE latency histogram\n"
            "latency_bucket{le=\"1\"} 1\n"
            "latency_bucket{le=\"2\"} 1\n"
            "latency_bucket{le=\"4\"} 2\n"
            "latency_bucket{le=\"+Inf\"} 3\n"
            "latency_sum 102.5\n"
            "latency_count 3\n");
}

TEST(MetricsRegistryTest, JsonlExposition) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total")->Increment(3);
  registry.GetGauge("queue_depth")->Set(1.5);
  Histogram* histogram = registry.GetHistogram("latency", SmallOptions());
  histogram->Observe(0.5);
  histogram->Observe(99.0);
  std::ostringstream out;
  registry.WriteJsonl(out);
  EXPECT_EQ(out.str(),
            "{\"type\":\"counter\",\"name\":\"requests_total\",\"value\":3}\n"
            "{\"type\":\"gauge\",\"name\":\"queue_depth\",\"value\":1.5}\n"
            "{\"type\":\"histogram\",\"name\":\"latency\",\"count\":2,"
            "\"sum\":99.5,\"buckets\":[{\"le\":1,\"count\":1},"
            "{\"le\":2,\"count\":0},{\"le\":4,\"count\":0},"
            "{\"le\":\"+Inf\",\"count\":1}]}\n");
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zebra")->Increment();
  registry.GetCounter("apple")->Increment(2);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "apple");
  EXPECT_EQ(snapshot.counters[0].second, 2);
  EXPECT_EQ(snapshot.counters[1].first, "zebra");
}

// Exercised by metrics_test_tsan too: concurrent increments from pool
// threads must be exact (atomic) and race-free.
TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  SetThreads(4);
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("parallel_hits");
  Histogram* histogram = registry.GetHistogram("parallel_lat", SmallOptions());
  constexpr int64_t kItems = 10000;
  ParallelFor(0, kItems, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      counter->Increment();
      histogram->Observe(static_cast<double>(i % 5));
    }
  });
  EXPECT_EQ(counter->value(), kItems);
  EXPECT_EQ(histogram->count(), kItems);
  SetThreads(0);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationSingleInstance) {
  SetThreads(4);
  MetricsRegistry registry;
  std::vector<Counter*> seen(64, nullptr);
  ParallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      Counter* c = registry.GetCounter("shared");
      c->Increment();
      seen[static_cast<size_t>(i)] = c;
    }
  });
  for (Counter* c : seen) EXPECT_EQ(c, seen[0]);
  EXPECT_EQ(seen[0]->value(), 64);
  SetThreads(0);
}

#if DASC_METRICS_ENABLED

TEST(MetricsMacroTest, MacrosHitGlobalRegistry) {
  GlobalMetrics().Reset();
  SetMetricsEnabled(true);
  for (int i = 0; i < 3; ++i) DASC_METRIC_COUNTER_INC("macro_test_counter");
  DASC_METRIC_COUNTER_ADD("macro_test_counter", 2);
  DASC_METRIC_GAUGE_SET("macro_test_gauge", 7.5);
  DASC_METRIC_HISTOGRAM_OBSERVE(
      "macro_test_histogram", 1.5,
      (HistogramOptions{.start = 1.0, .growth = 2.0, .num_buckets = 3}));
  EXPECT_EQ(GlobalMetrics().GetCounter("macro_test_counter")->value(), 5);
  EXPECT_EQ(GlobalMetrics().GetGauge("macro_test_gauge")->value(), 7.5);
  EXPECT_EQ(GlobalMetrics().GetHistogram("macro_test_histogram")->count(), 1);
}

TEST(MetricsMacroTest, KillSwitchSuppressesUpdates) {
  GlobalMetrics().Reset();
  SetMetricsEnabled(false);
  DASC_METRIC_COUNTER_INC("macro_kill_counter");
  DASC_METRIC_GAUGE_SET("macro_kill_gauge", 1.0);
  DASC_METRIC_HISTOGRAM_OBSERVE("macro_kill_histogram", 1.0);
  SetMetricsEnabled(true);
  EXPECT_EQ(GlobalMetrics().GetCounter("macro_kill_counter")->value(), 0);
  EXPECT_EQ(GlobalMetrics().GetGauge("macro_kill_gauge")->value(), 0.0);
  DASC_METRIC_COUNTER_INC("macro_kill_counter");
  EXPECT_EQ(GlobalMetrics().GetCounter("macro_kill_counter")->value(), 1);
}

// The pool publishes its queue depth and per-task wait time. The dtor
// drains the queue, so by the time the scope closes every submitted job has
// been dequeued exactly once: the wait histogram count equals the number of
// submissions and the last depth write is the drained queue's zero. Also
// compiled into metrics_test_tsan so the instrumentation is race-checked
// against the pool's own locking.
TEST(ThreadPoolMetricsTest, PublishesQueueDepthAndWaitHistogram) {
  // Earlier ParallelFor calls can leave helper jobs queued on the global
  // pool, whose late dequeues would land in the histogram after the Reset
  // below. Resizing the pool destroys it, which drains its queue first.
  SetThreads(1);
  SetThreads(0);
  GlobalMetrics().Reset();
  SetMetricsEnabled(true);
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), 16);
  const HistogramSnapshot wait =
      GlobalMetrics().GetHistogram("threadpool_task_wait_ms")->Snapshot();
  EXPECT_EQ(wait.count, 16);
  EXPECT_GE(wait.sum, 0.0);
  EXPECT_EQ(GlobalMetrics().GetGauge("threadpool_queue_depth")->value(), 0.0);
}

TEST(TracingTest, RecordsNestedSpans) {
  StartTracing();
  {
    DASC_TRACE_SPAN("outer");
    {
      DASC_TRACE_SPAN_N("inner", 42);
    }
  }
  StopTracing();
  EXPECT_EQ(TraceEventCount(), 2u);
  std::ostringstream out;
  WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":42"), std::string::npos);
  ClearTraceEvents();
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST(TracingTest, InactiveRecordsNothing) {
  ClearTraceEvents();
  EXPECT_FALSE(TracingActive());
  {
    DASC_TRACE_SPAN("ignored");
  }
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST(TracingTest, StartClearsPreviousEvents) {
  StartTracing();
  {
    DASC_TRACE_SPAN("first");
  }
  StopTracing();
  EXPECT_EQ(TraceEventCount(), 1u);
  StartTracing();
  StopTracing();
  EXPECT_EQ(TraceEventCount(), 0u);
}

// Also compiled into metrics_test_tsan: spans recorded from pool threads
// land in per-thread buffers without racing.
TEST(TracingTest, SpansOnPoolThreads) {
  SetThreads(4);
  StartTracing();
  ParallelFor(0, 32, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      DASC_TRACE_SPAN("chunk");
    }
  });
  StopTracing();
  EXPECT_EQ(TraceEventCount(), 32u);
  std::ostringstream out;
  WriteChromeTrace(out);
  EXPECT_NE(out.str().find("\"name\":\"chunk\""), std::string::npos);
  ClearTraceEvents();
  SetThreads(0);
}

#endif  // DASC_METRICS_ENABLED

}  // namespace
}  // namespace dasc::util
