#include "ghs/serve/service_model.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ghs::serve {
namespace {

TEST(ServiceModelTest, CachesShapes) {
  ServiceModel model;
  const auto tuning = core::paper_best_tuning(workload::CaseId::kC1);
  const auto first = model.gpu_service(workload::CaseId::kC1, 1 << 16, tuning);
  EXPECT_EQ(model.misses(), 1);
  const auto second =
      model.gpu_service(workload::CaseId::kC1, 1 << 16, tuning);
  EXPECT_EQ(model.misses(), 1);
  EXPECT_EQ(model.hits(), 1);
  EXPECT_EQ(first, second);
  // CPU entries are cached independently of GPU entries.
  model.cpu_service(workload::CaseId::kC1, 1 << 16);
  EXPECT_EQ(model.misses(), 2);
}

TEST(ServiceModelTest, MemoKeepsEveryShapeAcrossGrowth) {
  // 300 shapes outgrow the memo's first table several times over: each
  // prices once, and every later lookup hits with the same duration.
  ServiceModel model;
  std::vector<SimTime> first;
  const auto price = [&model](int i) {
    const auto case_id = static_cast<workload::CaseId>(i % 4);
    const std::int64_t elements = 1024 + 64 * (i / 3);
    core::ReduceTuning tuning = core::paper_best_tuning(case_id);
    tuning.teams = 256 << (i % 3);
    return i % 3 == 0 ? model.cpu_service(case_id, elements)
                      : model.gpu_service(case_id, elements, tuning);
  };
  for (int i = 0; i < 300; ++i) first.push_back(price(i));
  EXPECT_EQ(model.misses(), 300);
  EXPECT_EQ(model.hits(), 0);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(price(i), first[static_cast<std::size_t>(i)]) << "shape " << i;
  }
  EXPECT_EQ(model.misses(), 300);
  EXPECT_EQ(model.hits(), 300);
}

TEST(ServiceModelTest, ServiceGrowsWithElements) {
  ServiceModel model;
  const auto tuning = core::paper_best_tuning(workload::CaseId::kC3);
  EXPECT_LT(model.gpu_service(workload::CaseId::kC3, 1 << 16, tuning),
            model.gpu_service(workload::CaseId::kC3, 1 << 22, tuning));
  EXPECT_LT(model.cpu_service(workload::CaseId::kC3, 1 << 16),
            model.cpu_service(workload::CaseId::kC3, 1 << 22));
}

TEST(ServiceModelTest, GpuOutrunsCpuOnLargeShapes) {
  ServiceModel model;
  const auto tuning = core::paper_best_tuning(workload::CaseId::kC1);
  // At 2^24 elements (64 MiB of int32) the H100's HBM stream beats the
  // Grace socket even with launch overheads amortised once.
  EXPECT_LT(model.gpu_service(workload::CaseId::kC1, 1 << 24, tuning),
            model.cpu_service(workload::CaseId::kC1, 1 << 24));
}

}  // namespace
}  // namespace ghs::serve
