#include "lang/lexer.h"

#include <gtest/gtest.h>

namespace cactis::lang {
namespace {

std::vector<Token> Lex(std::string_view src) {
  Lexer lexer(src);
  auto tokens = lexer.Tokenize();
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  return tokens.ok() ? *tokens : std::vector<Token>{};
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto toks = Lex("Object CLASS is End BEGIN For Each Related To Do");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].type, TokenType::kKwObject);
  EXPECT_EQ(toks[1].type, TokenType::kKwClass);
  EXPECT_EQ(toks[2].type, TokenType::kKwIs);
  EXPECT_EQ(toks[3].type, TokenType::kKwEndKw);
  EXPECT_EQ(toks[4].type, TokenType::kKwBegin);
  EXPECT_EQ(toks[9].type, TokenType::kKwDo);
}

TEST(LexerTest, IdentifiersCanonicalisedToLower) {
  auto toks = Lex("TIME0 Exp_Compl");
  EXPECT_EQ(toks[0].text, "time0");
  EXPECT_EQ(toks[1].text, "exp_compl");
  EXPECT_EQ(toks[1].type, TokenType::kIdentifier);
}

TEST(LexerTest, NumberLiterals) {
  auto toks = Lex("42 3.5 0");
  EXPECT_EQ(toks[0].type, TokenType::kIntLiteral);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].type, TokenType::kRealLiteral);
  EXPECT_DOUBLE_EQ(toks[1].real_value, 3.5);
  EXPECT_EQ(toks[2].int_value, 0);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto toks = Lex(R"("hello \"there\"\n" 'single')");
  EXPECT_EQ(toks[0].type, TokenType::kStringLiteral);
  EXPECT_EQ(toks[0].text, "hello \"there\"\n");
  EXPECT_EQ(toks[1].text, "single");
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto toks = Lex("= == != <> < <= > >= + - * / % ( ) [ ] , ; : .");
  EXPECT_EQ(toks[0].type, TokenType::kAssign);
  EXPECT_EQ(toks[1].type, TokenType::kEq);
  EXPECT_EQ(toks[2].type, TokenType::kNe);
  EXPECT_EQ(toks[3].type, TokenType::kNe);  // <> alias
  EXPECT_EQ(toks[4].type, TokenType::kLt);
  EXPECT_EQ(toks[5].type, TokenType::kLe);
  EXPECT_EQ(toks[6].type, TokenType::kGt);
  EXPECT_EQ(toks[7].type, TokenType::kGe);
  EXPECT_EQ(toks[19].type, TokenType::kColon);
  EXPECT_EQ(toks[20].type, TokenType::kDot);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto toks = Lex("a /* block \n comment */ b -- line comment\n c");
  ASSERT_EQ(toks.size(), 4u);  // a b c + end
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[2].text, "c");
}

TEST(LexerTest, LineNumbersTracked) {
  auto toks = Lex("a\nb\n\nc");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(LexerTest, UnterminatedCommentFails) {
  Lexer lexer("a /* never closed");
  EXPECT_FALSE(lexer.Tokenize().ok());
}

TEST(LexerTest, UnterminatedStringFails) {
  Lexer lexer("\"oops");
  EXPECT_FALSE(lexer.Tokenize().ok());
}

TEST(LexerTest, OverflowingIntLiteralFails) {
  // Found by fuzz_statement: std::stoll threw std::out_of_range and
  // took the process down instead of returning a parse error.
  Lexer lexer("x = 99999999999999999999999999999");
  auto r = lexer.Tokenize();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(LexerTest, OverflowingRealLiteralFails) {
  // The lexer keeps a view of its source, so the string must outlive it.
  const std::string source = "x = " + std::string(400, '9') + ".5";
  Lexer lexer(source);
  auto r = lexer.Tokenize();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(LexerTest, UnknownCharacterFails) {
  Lexer lexer("a @ b");
  auto r = lexer.Tokenize();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(LexerTest, EmptyInputYieldsEndOnly) {
  auto toks = Lex("   \n  ");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].type, TokenType::kEnd);
}

}  // namespace
}  // namespace cactis::lang
