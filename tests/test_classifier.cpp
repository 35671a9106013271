// Tests for the SyntheticShapes dataset (the source behind
// data::ShapesFrameDataset).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "image/shapes_dataset.hpp"
#include "tensor/tensor_ops.hpp"

namespace dlsr {
namespace {

TEST(ShapesDataset, DeterministicAndBalanced) {
  img::ShapesConfig cfg;
  cfg.image_size = 12;
  cfg.samples = 64;
  const img::SyntheticShapes a(cfg);
  const img::SyntheticShapes b(cfg);
  std::size_t counts[img::kShapeClassCount] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_LT(max_abs_diff(a.image(i), b.image(i)), 1e-9f);
    ++counts[static_cast<std::size_t>(a.label(i))];
  }
  for (const std::size_t c : counts) {
    EXPECT_EQ(c, cfg.samples / img::kShapeClassCount);
  }
}

TEST(ShapesDataset, ValuesInRangeAndVaried) {
  img::ShapesConfig cfg;
  cfg.image_size = 12;
  cfg.samples = 16;
  const img::SyntheticShapes data(cfg);
  for (std::size_t i = 0; i < cfg.samples; ++i) {
    const Tensor im = data.image(i);
    for (std::size_t j = 0; j < im.numel(); ++j) {
      EXPECT_GE(im[j], 0.0f);
      EXPECT_LE(im[j], 1.0f);
    }
  }
  EXPECT_GT(max_abs_diff(data.image(0), data.image(4)), 0.02f);
}

TEST(ShapesDataset, BatchWrapsAndLabels) {
  img::ShapesConfig cfg;
  cfg.image_size = 8;
  cfg.samples = 10;
  const img::SyntheticShapes data(cfg);
  const auto [images, labels] = data.batch(8, 4);  // wraps 8,9,0,1
  EXPECT_EQ(images.shape(), Shape({4, 3, 8, 8}));
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels[2], static_cast<std::size_t>(data.label(0)));
  EXPECT_THROW(data.image(10), Error);
}

TEST(ShapesDataset, ClassNames) {
  EXPECT_STREQ(img::shape_class_name(img::ShapeClass::Disk), "disk");
  EXPECT_STREQ(img::shape_class_name(img::ShapeClass::Texture), "texture");
}

}  // namespace
}  // namespace dlsr
