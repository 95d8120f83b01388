// Tests for the Matrix type, views, and structural helpers.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"

namespace hatrix::la {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix a(3, 4);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(a(i, j), 0.0);
}

TEST(Matrix, IdentityDiagonal) {
  Matrix e = Matrix::identity(5);
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 5; ++i) EXPECT_EQ(e(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(0, 1) = 3;
  a(1, 1) = 4;
  EXPECT_EQ(a.data()[0], 1);
  EXPECT_EQ(a.data()[1], 2);
  EXPECT_EQ(a.data()[2], 3);
  EXPECT_EQ(a.data()[3], 4);
}

TEST(Matrix, BlockViewAliasesStorage) {
  Matrix a(4, 4);
  auto b = a.block(1, 2, 2, 2);
  b(0, 0) = 7.5;
  EXPECT_EQ(a(1, 2), 7.5);
  EXPECT_EQ(b.ld, 4);
}

TEST(Matrix, BlockOutOfRangeThrows) {
  Matrix a(4, 4);
  EXPECT_THROW((void)a.block(2, 2, 3, 1), Error);
  EXPECT_THROW((void)a.block(-1, 0, 1, 1), Error);
}

TEST(Matrix, FromViewDeepCopies) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  Matrix b = Matrix::from_view(a.view());
  b(0, 0) = 9;
  EXPECT_EQ(a(0, 0), 1);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  Matrix a = Matrix::random_normal(rng, 3, 5);
  Matrix t = transpose(a.view());
  ASSERT_EQ(t.rows(), 5);
  ASSERT_EQ(t.cols(), 3);
  Matrix tt = transpose(t.view());
  EXPECT_LT(rel_error(a.view(), tt.view()), 1e-16);
}

TEST(Matrix, HConcatStacks) {
  Matrix a(2, 1), b(2, 3);
  a(1, 0) = 2;
  b(0, 2) = 8;
  Matrix c = hconcat({a.view(), b.view()});
  ASSERT_EQ(c.cols(), 4);
  EXPECT_EQ(c(1, 0), 2);
  EXPECT_EQ(c(0, 3), 8);
}

TEST(Matrix, ConcatShapeMismatchThrows) {
  Matrix c(2, 1), d(3, 1);
  EXPECT_THROW(hconcat({c.view(), d.view()}), Error);
}

TEST(Matrix, GatherRowsSelects) {
  Rng rng(2);
  Matrix a = Matrix::random_normal(rng, 4, 3);
  Matrix g = gather_rows(a.view(), {2, 0});
  ASSERT_EQ(g.rows(), 2);
  for (index_t j = 0; j < 3; ++j) {
    EXPECT_EQ(g(0, j), a(2, j));
    EXPECT_EQ(g(1, j), a(0, j));
  }
}

TEST(Matrix, GatherColsSelects) {
  Rng rng(3);
  Matrix a = Matrix::random_normal(rng, 3, 4);
  Matrix g = gather_cols(a.view(), {3, 1});
  ASSERT_EQ(g.cols(), 2);
  for (index_t i = 0; i < 3; ++i) {
    EXPECT_EQ(g(i, 0), a(i, 3));
    EXPECT_EQ(g(i, 1), a(i, 1));
  }
}

TEST(Matrix, RandomSpdIsSymmetric) {
  Rng rng(4);
  Matrix a = Matrix::random_spd(rng, 16);
  for (index_t j = 0; j < 16; ++j)
    for (index_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(a(i, j), a(j, i));
}

TEST(Matrix, BytesReportsFootprint) {
  Matrix a(10, 3);
  EXPECT_EQ(a.bytes(), 240);
}

}  // namespace
}  // namespace hatrix::la
