#ifndef SECVIEW_DTD_DTD_H_
#define SECVIEW_DTD_DTD_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dtd/content_model.h"

namespace secview {

/// Identifies an element type within one Dtd. Dense, starting at 0.
using TypeId = int;

/// Sentinel for "no element type".
inline constexpr TypeId kNullType = -1;

/// An attribute declaration (one row of an <!ATTLIST>). Attribute-level
/// access control is the extension Section 2 of the paper points at
/// ("Attributes ... can be easily incorporated").
struct AttributeDef {
  /// ID/IDREF/NMTOKEN/... are treated as CDATA: the security machinery
  /// only needs presence and (for enumerations/#FIXED) the value space.
  enum class ValueType { kCdata, kEnumerated };
  enum class Presence { kRequired, kImplied, kDefault, kFixed };

  std::string name;
  ValueType value_type = ValueType::kCdata;
  std::vector<std::string> enum_values;  // kEnumerated only
  Presence presence = Presence::kImplied;
  std::string default_value;  // kDefault / kFixed only

  std::string ToString() const;
};

/// A DTD in the paper's representation (Ele, Rg, r): a finite set of
/// element types, one normalized production per type, and a distinguished
/// root type (Section 2).
///
/// Build with AddType()/SetRoot(), then call Finalize() once; most
/// consumers require a finalized DTD (all referenced types defined, root
/// set). The builder API returns Status so that parsers can surface
/// duplicate or dangling definitions as user errors.
class Dtd {
 public:
  Dtd() = default;

  // -- Construction --------------------------------------------------------

  /// Defines element type `name` with production `content`. Fails on
  /// duplicate definitions or invalid names.
  Status AddType(std::string_view name, ContentModel content);

  /// Declares an attribute on element type `name` (which must already be
  /// added). Fails on duplicate attribute names per type.
  Status AddAttribute(std::string_view type_name, AttributeDef def);

  /// Marks `id` as an auxiliary type introduced by normalization
  /// (dtd/normalizer.h). Auxiliary types are treated as transparent by
  /// AccessSpec::Annotate, so policies can be written against the
  /// original DTD's parent/child pairs.
  void MarkAuxiliary(TypeId id) { auxiliary_[id] = true; }
  bool IsAuxiliary(TypeId id) const { return auxiliary_[id]; }

  /// Declares `name` the root type. May be called before the type is added.
  Status SetRoot(std::string_view name);

  /// Checks global consistency: a root is set, every type referenced in a
  /// production is defined, choice alternatives are distinct. After a
  /// successful Finalize the DTD is immutable by convention.
  Status Finalize();

  bool finalized() const { return finalized_; }

  // -- Accessors -----------------------------------------------------------

  /// Number of element types |Ele|.
  int NumTypes() const { return static_cast<int>(names_.size()); }

  /// Size measure |D| used in the paper's complexity bounds: the total
  /// number of types plus production symbols.
  int Size() const;

  TypeId root() const { return root_; }

  /// TypeId for `name`, or kNullType.
  TypeId FindType(std::string_view name) const;

  const std::string& TypeName(TypeId id) const { return names_[id]; }

  const ContentModel& Content(TypeId id) const { return contents_[id]; }

  /// Declared attributes of `id` (possibly empty).
  const std::vector<AttributeDef>& Attributes(TypeId id) const {
    return attributes_[id];
  }

  /// The declaration of attribute `name` on `id`, or nullptr.
  const AttributeDef* FindAttribute(TypeId id, std::string_view name) const;

  /// The distinct child types of `id`, in first-occurrence order.
  std::vector<TypeId> ChildTypes(TypeId id) const;

  /// True iff `child` occurs in the production of `parent`.
  bool HasChild(TypeId parent, TypeId child) const;

  /// DTD text (one <!ELEMENT .. > per type, root first).
  std::string ToString() const;

 private:
  bool finalized_ = false;
  TypeId root_ = kNullType;
  std::string root_name_;  // remembered until the type is defined
  std::vector<std::string> names_;
  std::vector<ContentModel> contents_;
  std::vector<std::vector<AttributeDef>> attributes_;
  std::vector<bool> auxiliary_;
  /// Transparent hashing, so FindType looks a name up without copying it.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>()(name);
    }
  };
  std::unordered_map<std::string, TypeId, NameHash, std::equal_to<>> ids_;
};

}  // namespace secview

#endif  // SECVIEW_DTD_DTD_H_
