#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace tgks {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "invalid-argument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "not-found");
  EXPECT_EQ(StatusCodeName(StatusCode::kAlreadyExists), "already-exists");
  EXPECT_EQ(StatusCodeName(StatusCode::kOutOfRange), "out-of-range");
  EXPECT_EQ(StatusCodeName(StatusCode::kCorruption), "corruption");
  EXPECT_EQ(StatusCodeName(StatusCode::kIOError), "io-error");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnimplemented), "unimplemented");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "internal");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Corruption("x"), Status::Corruption("x"));
  EXPECT_FALSE(Status::Corruption("x") == Status::Corruption("y"));
  EXPECT_FALSE(Status::Corruption("x") == Status::IOError("x"));
}

Status FailWhenNegative(int v) {
  if (v < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int v) {
  TGKS_RETURN_IF_ERROR(FailWhenNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_EQ(Chain(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("no file");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> HalveEven(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UseAssignOrReturn(int v, int* out) {
  TGKS_ASSIGN_OR_RETURN(*out, HalveEven(v));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseAssignOrReturn(7, &out).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tgks
