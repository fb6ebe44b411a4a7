#include "frontend/prototxt.h"

#include <cctype>
#include <cstdlib>

#include "common/error.h"
#include "common/strings.h"

namespace db {
namespace {

enum class TokKind { kIdent, kNumber, kString, kLBrace, kRBrace, kColon,
                     kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  double number = 0.0;
  int line = 1;
};

/// Hand-rolled lexer: identifiers, numbers, quoted strings, braces, colon.
class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Token Next() {
    SkipWhitespaceAndComments();
    Token tok;
    tok.line = line_;
    if (pos_ >= text_.size()) {
      tok.kind = TokKind::kEnd;
      return tok;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      tok.kind = TokKind::kLBrace;
      return tok;
    }
    if (c == '}') {
      ++pos_;
      tok.kind = TokKind::kRBrace;
      return tok;
    }
    if (c == ':') {
      ++pos_;
      tok.kind = TokKind::kColon;
      return tok;
    }
    if (c == '"' || c == '\'') return LexString(c);
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+' || c == '.')
      return LexNumber();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
      return LexIdent();
    throw ParseError(line_, std::string("unexpected character '") + c + "'");
  }

 private:
  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
                 c == ';') {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        return;
      }
    }
  }

  Token LexString(char quote) {
    Token tok;
    tok.line = line_;
    tok.kind = TokKind::kString;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != quote) {
      if (text_[pos_] == '\n')
        throw ParseError(line_, "unterminated string literal");
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      tok.text += text_[pos_++];
    }
    if (pos_ >= text_.size())
      throw ParseError(line_, "unterminated string literal");
    ++pos_;  // closing quote
    return tok;
  }

  Token LexNumber() {
    Token tok;
    tok.line = line_;
    tok.kind = TokKind::kNumber;
    const std::size_t start = pos_;
    if (text_[pos_] == '-' || text_[pos_] == '+') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))))
      ++pos_;
    tok.text = text_.substr(start, pos_ - start);
    char* end = nullptr;
    tok.number = std::strtod(tok.text.c_str(), &end);
    if (end != tok.text.c_str() + tok.text.size())
      throw ParseError(tok.line, "malformed number '" + tok.text + "'");
    return tok;
  }

  Token LexIdent() {
    Token tok;
    tok.line = line_;
    tok.kind = TokKind::kIdent;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.'))
      ++pos_;
    tok.text = text_.substr(start, pos_ - start);
    return tok;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) { Advance(); }

  PtMessage ParseTopLevel() {
    PtMessage msg = ParseFields(/*nested=*/false);
    if (cur_.kind != TokKind::kEnd)
      throw ParseError(cur_.line, "unexpected trailing '}'");
    return msg;
  }

 private:
  void Advance() { cur_ = lexer_.Next(); }

  PtMessage ParseFields(bool nested) {
    PtMessage msg;
    while (true) {
      if (cur_.kind == TokKind::kEnd) {
        if (nested)
          throw ParseError(cur_.line, "missing '}' before end of input");
        return msg;
      }
      if (cur_.kind == TokKind::kRBrace) {
        if (!nested)
          return msg;  // caller reports the stray brace
        Advance();
        return msg;
      }
      msg.Add(ParseField());
    }
  }

  PtField ParseField() {
    if (cur_.kind != TokKind::kIdent)
      throw ParseError(cur_.line, "expected field name, got '" +
                                      cur_.text + "'");
    PtField field;
    field.name = cur_.text;
    field.line = cur_.line;
    Advance();

    bool saw_colon = false;
    if (cur_.kind == TokKind::kColon) {
      saw_colon = true;
      Advance();
    }

    if (cur_.kind == TokKind::kLBrace) {
      Advance();
      field.message =
          std::make_shared<PtMessage>(ParseFields(/*nested=*/true));
      return field;
    }
    if (!saw_colon)
      throw ParseError(field.line,
                       "expected ':' or '{' after field '" + field.name +
                           "'");

    PtScalar scalar;
    switch (cur_.kind) {
      case TokKind::kNumber:
        scalar.kind = PtScalar::Kind::kNumber;
        scalar.number = cur_.number;
        scalar.text = cur_.text;
        break;
      case TokKind::kString:
        scalar.kind = PtScalar::Kind::kString;
        scalar.text = cur_.text;
        break;
      case TokKind::kIdent:
        if (cur_.text == "true" || cur_.text == "false") {
          scalar.kind = PtScalar::Kind::kBool;
          scalar.number = cur_.text == "true" ? 1.0 : 0.0;
        } else {
          scalar.kind = PtScalar::Kind::kEnum;
        }
        scalar.text = cur_.text;
        break;
      default:
        throw ParseError(cur_.line, "expected value for field '" +
                                        field.name + "'");
    }
    Advance();
    field.scalar = std::move(scalar);
    return field;
  }

  Lexer lexer_;
  Token cur_;
};

}  // namespace

std::string PtScalar::ToString() const {
  switch (kind) {
    case Kind::kNumber: return text.empty() ? std::to_string(number) : text;
    case Kind::kString: return "\"" + text + "\"";
    case Kind::kEnum: return text;
    case Kind::kBool: return number != 0.0 ? "true" : "false";
  }
  return {};
}

std::vector<const PtField*> PtMessage::All(const std::string& name) const {
  std::vector<const PtField*> out;
  for (const PtField& f : fields_)
    if (f.name == name) out.push_back(&f);
  return out;
}

const PtField* PtMessage::Find(const std::string& name) const {
  const PtField* found = nullptr;
  for (const PtField& f : fields_) {
    if (f.name != name) continue;
    if (found != nullptr)
      DB_THROW("field '" << name << "' repeats but a single value was "
               "expected (line " << f.line << ")");
    found = &f;
  }
  return found;
}

std::int64_t PtMessage::GetInt(const std::string& name, std::int64_t def,
                               std::int64_t lo, std::int64_t hi) const {
  const PtField* f = Find(name);
  return f == nullptr ? def : ParseIntAt(*f, lo, hi);
}

std::int64_t ParseIntAt(const PtField& field, std::int64_t lo,
                        std::int64_t hi) {
  if (!field.scalar || field.scalar->kind != PtScalar::Kind::kNumber)
    throw ParseError(field.line, "field '" + field.name +
                                     "' is not a number");
  try {
    return ParseInt(field.scalar->text, lo, hi, field.name);
  } catch (const Error& e) {
    throw ParseError(field.line, e.what());
  }
}

double PtMessage::GetDouble(const std::string& name, double def) const {
  const PtField* f = Find(name);
  if (f == nullptr) return def;
  if (!f->scalar || f->scalar->kind != PtScalar::Kind::kNumber)
    DB_THROW("field '" << name << "' is not a number (line " << f->line
             << ")");
  return f->scalar->number;
}

std::string PtMessage::GetString(const std::string& name,
                                 const std::string& def) const {
  const PtField* f = Find(name);
  if (f == nullptr) return def;
  if (!f->scalar || (f->scalar->kind != PtScalar::Kind::kString &&
                     f->scalar->kind != PtScalar::Kind::kEnum))
    DB_THROW("field '" << name << "' is not a string (line " << f->line
             << ")");
  return f->scalar->text;
}

std::string PtMessage::GetEnum(const std::string& name,
                               const std::string& def) const {
  const PtField* f = Find(name);
  if (f == nullptr) return def;
  if (!f->scalar || (f->scalar->kind != PtScalar::Kind::kEnum &&
                     f->scalar->kind != PtScalar::Kind::kString))
    DB_THROW("field '" << name << "' is not an enum (line " << f->line
             << ")");
  return ToLower(f->scalar->text);
}

bool PtMessage::GetBool(const std::string& name, bool def) const {
  const PtField* f = Find(name);
  if (f == nullptr) return def;
  if (!f->scalar || f->scalar->kind != PtScalar::Kind::kBool)
    DB_THROW("field '" << name << "' is not a bool (line " << f->line
             << ")");
  return f->scalar->number != 0.0;
}

PtMessage ParsePrototxt(const std::string& text) {
  Parser parser(text);
  return parser.ParseTopLevel();
}

}  // namespace db
