// Memory references — the unit of the paper's analyzable / non-analyzable
// classification (§2.3).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "ir/expr.h"

namespace selcache::ir {

using ArrayId = std::uint32_t;
using ScalarId = std::uint32_t;
using PoolId = std::uint32_t;  ///< pointer pools and record pools

/// One array subscript dimension.
struct Subscript {
  struct Affine {
    AffineExpr expr;
    bool operator==(const Affine&) const = default;
  };
  /// Non-affine product of loop variables, e.g. F[3][i*j].
  struct Product {
    AffineExpr lhs, rhs;
    bool operator==(const Product&) const = default;
  };
  /// Non-affine quotient, e.g. E[i/j]. Division by zero evaluates as the
  /// numerator (matches the "undefined but harmless" synthesis need).
  struct Divide {
    AffineExpr lhs, rhs;
    bool operator==(const Divide&) const = default;
  };
  /// Indexed (subscripted-subscript) access, e.g. G[IP[j] + 2]: the value
  /// loaded from index_array[index] plus a constant offset.
  struct Indexed {
    ArrayId index_array;
    AffineExpr index;
    std::int64_t offset = 0;
    bool operator==(const Indexed&) const = default;
  };

  std::variant<Affine, Product, Divide, Indexed> value;

  bool operator==(const Subscript&) const = default;

  bool is_affine() const { return std::holds_alternative<Affine>(value); }
  bool is_indexed() const { return std::holds_alternative<Indexed>(value); }

  static Subscript affine(AffineExpr e) { return {Affine{std::move(e)}}; }
  static Subscript product(AffineExpr l, AffineExpr r) {
    return {Product{std::move(l), std::move(r)}};
  }
  static Subscript divide(AffineExpr l, AffineExpr r) {
    return {Divide{std::move(l), std::move(r)}};
  }
  static Subscript indexed(ArrayId ia, AffineExpr idx, std::int64_t off = 0) {
    return {Indexed{ia, std::move(idx), off}};
  }

  /// Apply var -> expr substitution to every affine component (transforms).
  Subscript substituted(VarId v, const AffineExpr& e) const;
  /// Does any component use variable `v`?
  bool uses(VarId v) const;
};

/// A single memory reference inside a statement.
struct Reference {
  struct Scalar {
    ScalarId id;
    bool operator==(const Scalar&) const = default;
  };
  struct Array {
    ArrayId id;
    std::vector<Subscript> subs;  ///< one per declared dimension
    bool operator==(const Array&) const = default;
  };
  /// Pointer-chasing reference (*H, list/tree walks): each execution follows
  /// the pool's next link from the previous node. Address-dependent — the
  /// timing model serializes these loads.
  struct Pointer {
    PoolId pool;
    std::uint32_t field_offset = 0;
    bool operator==(const Pointer&) const = default;
  };
  /// Struct-field access J.field / K->field: record selected by a subscript
  /// into a pool of fixed-size records.
  struct Field {
    PoolId pool;
    Subscript element;
    std::uint32_t field_offset = 0;
    bool operator==(const Field&) const = default;
  };

  std::variant<Scalar, Array, Pointer, Field> target;
  bool is_write = false;

  bool operator==(const Reference&) const = default;

  bool is_array() const { return std::holds_alternative<Array>(target); }
  bool is_scalar() const { return std::holds_alternative<Scalar>(target); }
  bool is_pointer() const { return std::holds_alternative<Pointer>(target); }
  bool is_field() const { return std::holds_alternative<Field>(target); }

  Reference substituted(VarId v, const AffineExpr& e) const;
  bool uses(VarId v) const;
};

// Convenience constructors used throughout the workloads and tests.
Reference load_scalar(ScalarId s);
Reference store_scalar(ScalarId s);
Reference load_array(ArrayId a, std::vector<Subscript> subs);
Reference store_array(ArrayId a, std::vector<Subscript> subs);
Reference chase(PoolId pool, std::uint32_t field_offset = 0);
Reference load_field(PoolId pool, Subscript element,
                     std::uint32_t field_offset = 0);
Reference store_field(PoolId pool, Subscript element,
                      std::uint32_t field_offset = 0);

}  // namespace selcache::ir
