#include "hpf/parser.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "hpf/builder.hpp"
#include "hpf/lexer.hpp"

namespace hpfc::hpf {

namespace {

using mapping::Alignment;
using mapping::AlignTarget;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;

std::string lowered(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticEngine& diags)
      : tokens_(std::move(tokens)), diags_(diags) {}

  ir::Program run() {
    expect_keyword("routine");
    const std::string name = expect_ident();
    builder_ = std::make_unique<ProgramBuilder>(name);
    while (!at_end() && !peek_keyword("begin") && ok_) parse_decl();
    expect_keyword("begin");
    while (!at_end() && !peek_keyword("end") && ok_) parse_stmt();
    expect_keyword("end");
    return builder_->finish(diags_);
  }

 private:
  // ---- token helpers -------------------------------------------------
  const Token& peek() const { return tokens_[pos_]; }
  const Token& get() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool at_end() const { return peek().kind == TokKind::End || !ok_; }

  bool peek_keyword(std::string_view kw) const {
    return peek().kind == TokKind::Ident && lowered(peek().text) == kw;
  }
  bool accept_keyword(std::string_view kw) {
    if (!peek_keyword(kw)) return false;
    get();
    return true;
  }
  void expect_keyword(std::string_view kw) {
    if (!accept_keyword(kw))
      error("expected '" + std::string(kw) + "', got '" + peek().text + "'");
  }
  bool accept(TokKind kind) {
    if (peek().kind != kind) return false;
    get();
    return true;
  }
  void expect(TokKind kind, std::string_view what) {
    if (!accept(kind))
      error("expected " + std::string(what) + ", got '" + peek().text + "'");
  }
  std::string expect_ident() {
    if (peek().kind != TokKind::Ident) {
      error("expected identifier, got '" + peek().text + "'");
      return "?";
    }
    return get().text;
  }
  Extent expect_number() {
    if (peek().kind != TokKind::Number) {
      error("expected number, got '" + peek().text + "'");
      return 0;
    }
    return get().value;
  }
  void error(const std::string& message) {
    if (ok_) diags_.error(DiagId::ParseError, peek().loc, message);
    ok_ = false;
  }

  // ---- grammar pieces -------------------------------------------------
  /// An extent list; every extent must be positive, which Shape asserts,
  /// so a zero extent is a diagnostic here rather than an abort there.
  Shape parse_shape() {
    expect(TokKind::LParen, "'('");
    std::vector<Extent> extents;
    do {
      const SourceLoc loc = peek().loc;
      const Extent extent = expect_number();
      if (ok_ && extent <= 0) {
        diags_.error(DiagId::ParseError, loc,
                     "extent must be positive, got " + std::to_string(extent));
        ok_ = false;
      }
      extents.push_back(extent);
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, "')'");
    if (!ok_) return Shape{1};
    return Shape(std::move(extents));
  }

  std::vector<std::string> parse_name_list() {
    expect(TokKind::LParen, "'('");
    std::vector<std::string> names;
    if (!accept(TokKind::RParen)) {
      do {
        names.push_back(expect_ident());
      } while (accept(TokKind::Comma));
      expect(TokKind::RParen, "')'");
    }
    return names;
  }

  std::vector<DistFormat> parse_formats() {
    expect(TokKind::LParen, "'('");
    std::vector<DistFormat> formats;
    do {
      if (accept(TokKind::Star)) {
        formats.push_back(DistFormat::collapsed());
        continue;
      }
      const std::string kw = lowered(expect_ident());
      Extent param = 0;
      if (accept(TokKind::LParen)) {
        param = expect_number();
        expect(TokKind::RParen, "')'");
      }
      if (kw == "block") {
        formats.push_back(DistFormat::block(param));
      } else if (kw == "cyclic") {
        formats.push_back(DistFormat::cyclic(param));
      } else {
        error("unknown distribution format '" + kw + "'");
      }
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, "')'");
    return formats;
  }

  /// Parses "(i,j)" of "align A(i,j) with ..." returning index names.
  std::vector<std::string> parse_index_names() {
    expect(TokKind::LParen, "'('");
    std::vector<std::string> names;
    do {
      names.push_back(expect_ident());
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, "')'");
    return names;
  }

  /// Parses one alignment target: '*', a constant, or [n*]name[+/-k].
  AlignTarget parse_target(const std::map<std::string, int>& index_dims) {
    if (accept(TokKind::Star)) return AlignTarget::replicated();
    Extent sign = 1;
    if (accept(TokKind::Minus)) sign = -1;
    if (peek().kind == TokKind::Number) {
      const Extent n = expect_number();
      if (accept(TokKind::Star)) {
        // n * name [+/- k]
        const std::string name = expect_ident();
        const auto it = index_dims.find(name);
        if (it == index_dims.end()) {
          error("unknown align index '" + name + "'");
          return AlignTarget::replicated();
        }
        Extent offset = 0;
        if (accept(TokKind::Plus)) offset = expect_number();
        else if (accept(TokKind::Minus)) offset = -expect_number();
        return AlignTarget::axis(it->second, sign * n, offset);
      }
      return AlignTarget::constant(sign * n);
    }
    const std::string name = expect_ident();
    const auto it = index_dims.find(name);
    if (it == index_dims.end()) {
      error("unknown align index '" + name + "'");
      return AlignTarget::replicated();
    }
    Extent offset = 0;
    if (accept(TokKind::Plus)) offset = expect_number();
    else if (accept(TokKind::Minus)) offset = -expect_number();
    return AlignTarget::axis(it->second, sign, offset);
  }

  /// Parses "A(i,j) with Target(j,i)" after 'align'/'realign'; returns
  /// (array, target name, alignment, target_is_after_with).
  struct AlignSpec {
    std::string array;
    std::string target;
    Alignment align;
  };
  AlignSpec parse_align_spec() {
    AlignSpec spec;
    spec.array = expect_ident();
    std::map<std::string, int> index_dims;
    if (peek().kind == TokKind::LParen) {
      const auto names = parse_index_names();
      for (std::size_t d = 0; d < names.size(); ++d)
        index_dims[names[d]] = static_cast<int>(d);
      spec.align.array_rank = static_cast<int>(names.size());
    }
    expect_keyword("with");
    spec.target = expect_ident();
    expect(TokKind::LParen, "'('");
    do {
      spec.align.per_template_dim.push_back(parse_target(index_dims));
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, "')'");
    return spec;
  }

  ir::Intent parse_intent() {
    expect_keyword("intent");
    expect(TokKind::LParen, "'('");
    const std::string kw = lowered(expect_ident());
    expect(TokKind::RParen, "')'");
    if (kw == "in") return ir::Intent::In;
    if (kw == "out") return ir::Intent::Out;
    if (kw == "inout") return ir::Intent::InOut;
    error("unknown intent '" + kw + "'");
    return ir::Intent::InOut;
  }

  // ---- declarations ----------------------------------------------------
  void parse_decl() {
    builder_->set_next_loc(peek().loc);
    if (accept_keyword("processors")) {
      const std::string name = expect_ident();
      builder_->procs(name, parse_shape());
    } else if (accept_keyword("template")) {
      const std::string name = expect_ident();
      seen_templates_.insert(name);
      builder_->tmpl(name, parse_shape());
    } else if (accept_keyword("real")) {
      const std::string name = expect_ident();
      builder_->array(name, parse_shape());
    } else if (accept_keyword("dummy")) {
      const std::string name = expect_ident();
      Shape shape = parse_shape();
      const ir::Intent intent = parse_intent();
      builder_->dummy(name, std::move(shape), intent);
    } else if (accept_keyword("dynamic")) {
      expect_ident();  // informational; remapped arrays are found anyway
    } else if (accept_keyword("align")) {
      AlignSpec spec = parse_align_spec();
      if (!ok_) return;
      if (is_known_template(spec.target)) {
        builder_->align(spec.array, spec.target, std::move(spec.align));
      } else {
        builder_->align_with_array(spec.array, spec.target,
                                   std::move(spec.align));
      }
    } else if (accept_keyword("distribute")) {
      const std::string target = expect_ident();
      auto formats = parse_formats();
      expect_keyword("onto");
      const std::string procs = expect_ident();
      if (!ok_) return;
      if (is_known_template(target)) {
        builder_->distribute_template(target, std::move(formats), procs);
      } else {
        builder_->distribute_array(target, std::move(formats), procs);
      }
    } else if (accept_keyword("interface")) {
      parse_interface();
    } else {
      error("expected a declaration, got '" + peek().text + "'");
    }
  }

  void parse_interface() {
    const std::string name = expect_ident();
    builder_->interface(name);
    expect(TokKind::LParen, "'('");
    if (accept(TokKind::RParen)) return;
    do {
      const std::string dummy = expect_ident();
      Shape shape = parse_shape();
      const ir::Intent intent = parse_intent();
      expect_keyword("distribute");
      auto formats = parse_formats();
      expect_keyword("onto");
      const std::string procs = expect_ident();
      if (!ok_) return;
      builder_->interface_dummy(dummy, std::move(shape), intent,
                                std::move(formats), procs);
    } while (accept(TokKind::Comma));
    expect(TokKind::RParen, "')'");
  }

  // ---- statements -------------------------------------------------------
  void parse_stmt() {
    builder_->set_next_loc(peek().loc);
    if (accept_keyword("use")) {
      builder_->use(parse_name_list());
    } else if (accept_keyword("def")) {
      builder_->def(parse_name_list());
    } else if (accept_keyword("full")) {
      builder_->full_def(parse_name_list());
    } else if (accept_keyword("ref")) {
      std::vector<std::string> reads, writes, defines;
      while (true) {
        if (accept_keyword("read")) reads = parse_name_list();
        else if (accept_keyword("write")) writes = parse_name_list();
        else if (accept_keyword("define")) defines = parse_name_list();
        else break;
      }
      builder_->ref(std::move(reads), std::move(writes), std::move(defines));
    } else if (accept_keyword("realign")) {
      AlignSpec spec = parse_align_spec();
      if (!ok_) return;
      if (is_known_template(spec.target)) {
        builder_->realign(spec.array, spec.target, std::move(spec.align));
      } else {
        builder_->realign_with_array(spec.array, spec.target,
                                     std::move(spec.align));
      }
    } else if (accept_keyword("redistribute")) {
      const std::string target = expect_ident();
      auto formats = parse_formats();
      std::string procs;
      if (accept_keyword("onto")) procs = expect_ident();
      if (!ok_) return;
      builder_->redistribute(target, std::move(formats), procs);
    } else if (accept_keyword("if")) {
      std::vector<std::string> cond;
      if (accept_keyword("read")) cond = parse_name_list();
      builder_->begin_if(std::move(cond));
      while (!at_end() && !peek_keyword("else") && !peek_keyword("endif"))
        parse_stmt();
      if (accept_keyword("else")) {
        builder_->begin_else();
        while (!at_end() && !peek_keyword("endif")) parse_stmt();
      }
      expect_keyword("endif");
      builder_->end_if();
    } else if (accept_keyword("loop")) {
      const Extent trips = expect_number();
      const bool nonzero = accept_keyword("nonzero");
      builder_->begin_loop(trips, !nonzero);
      while (!at_end() && !peek_keyword("endloop")) parse_stmt();
      expect_keyword("endloop");
      builder_->end_loop();
    } else if (accept_keyword("call")) {
      const std::string callee = expect_ident();
      builder_->call(callee, parse_name_list());
    } else if (accept_keyword("kill")) {
      auto names = parse_name_list();
      for (const auto& n : names) builder_->kill(n);
    } else if (accept_keyword("live")) {
      // live A(lo:hi, lo:hi, ...)
      const std::string name = expect_ident();
      expect(TokKind::LParen, "'('");
      ir::Region region;
      do {
        const Extent lo = expect_number();
        expect(TokKind::Colon, "':'");
        const Extent hi = expect_number();
        region.emplace_back(lo, hi);
      } while (accept(TokKind::Comma));
      expect(TokKind::RParen, "')'");
      builder_->live_region(name, std::move(region));
    } else {
      error("expected a statement, got '" + peek().text + "'");
    }
  }

  bool is_known_template(const std::string& name) const {
    return seen_templates_.count(name) > 0;
  }

  std::vector<Token> tokens_;
  DiagnosticEngine& diags_;
  std::unique_ptr<ProgramBuilder> builder_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::set<std::string> seen_templates_;
};

}  // namespace

ir::Program parse(std::string_view source, DiagnosticEngine& diags) {
  auto tokens = lex(source, diags);
  if (diags.has_errors()) return {};
  Parser parser(std::move(tokens), diags);
  return parser.run();
}

}  // namespace hpfc::hpf
