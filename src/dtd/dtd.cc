#include "dtd/dtd.h"

#include <unordered_set>

#include "common/string_util.h"

namespace secview {

Status Dtd::AddType(std::string_view name, ContentModel content) {
  if (finalized_) {
    return Status::FailedPrecondition("cannot add types after Finalize()");
  }
  if (!IsValidXmlName(name)) {
    return Status::InvalidArgument("invalid element type name: '" +
                                   std::string(name) + "'");
  }
  std::string key(name);
  if (ids_.count(key)) {
    return Status::InvalidArgument("duplicate element type: " + key);
  }
  TypeId id = static_cast<TypeId>(names_.size());
  ids_.emplace(key, id);
  names_.push_back(std::move(key));
  contents_.push_back(std::move(content));
  attributes_.emplace_back();
  auxiliary_.push_back(false);
  return Status::OK();
}

std::string AttributeDef::ToString() const {
  std::string out = name + " ";
  if (value_type == ValueType::kEnumerated) {
    out += "(" + Join(enum_values, " | ") + ")";
  } else {
    out += "CDATA";
  }
  switch (presence) {
    case Presence::kRequired:
      out += " #REQUIRED";
      break;
    case Presence::kImplied:
      out += " #IMPLIED";
      break;
    case Presence::kFixed:
      out += " #FIXED \"" + default_value + "\"";
      break;
    case Presence::kDefault:
      out += " \"" + default_value + "\"";
      break;
  }
  return out;
}

Status Dtd::AddAttribute(std::string_view type_name, AttributeDef def) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "cannot add attributes after Finalize()");
  }
  TypeId id = FindType(type_name);
  if (id == kNullType) {
    return Status::NotFound("unknown element type '" +
                            std::string(type_name) + "' in ATTLIST");
  }
  if (!IsValidXmlName(def.name)) {
    return Status::InvalidArgument("invalid attribute name: '" + def.name +
                                   "'");
  }
  for (const AttributeDef& existing : attributes_[id]) {
    if (existing.name == def.name) {
      return Status::InvalidArgument("duplicate attribute '" + def.name +
                                     "' on '" + std::string(type_name) + "'");
    }
  }
  attributes_[id].push_back(std::move(def));
  return Status::OK();
}

const AttributeDef* Dtd::FindAttribute(TypeId id,
                                       std::string_view name) const {
  for (const AttributeDef& def : attributes_[id]) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

Status Dtd::SetRoot(std::string_view name) {
  if (finalized_) {
    return Status::FailedPrecondition("cannot set root after Finalize()");
  }
  root_name_ = std::string(name);
  return Status::OK();
}

Status Dtd::Finalize() {
  if (finalized_) return Status::OK();
  if (root_name_.empty()) {
    return Status::InvalidArgument("DTD has no root type");
  }
  root_ = FindType(root_name_);
  if (root_ == kNullType) {
    return Status::InvalidArgument("root type '" + root_name_ +
                                   "' is not defined");
  }
  for (TypeId id = 0; id < NumTypes(); ++id) {
    const ContentModel& cm = contents_[id];
    std::unordered_set<std::string> seen;
    for (const std::string& child : cm.types()) {
      if (!ids_.count(child)) {
        return Status::InvalidArgument("element type '" + child +
                                       "' referenced by '" + names_[id] +
                                       "' is not defined");
      }
      if (cm.kind() == ContentKind::kChoice && !seen.insert(child).second) {
        return Status::InvalidArgument("duplicate alternative '" + child +
                                       "' in the choice production of '" +
                                       names_[id] + "'");
      }
    }
  }
  finalized_ = true;
  return Status::OK();
}

int Dtd::Size() const {
  int size = NumTypes();
  for (const ContentModel& cm : contents_) {
    size += static_cast<int>(cm.types().size());
  }
  return size;
}

TypeId Dtd::FindType(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNullType : it->second;
}

std::vector<TypeId> Dtd::ChildTypes(TypeId id) const {
  std::vector<TypeId> out;
  std::unordered_set<TypeId> seen;
  for (const std::string& child : contents_[id].types()) {
    TypeId cid = FindType(child);
    if (cid != kNullType && seen.insert(cid).second) out.push_back(cid);
  }
  return out;
}

bool Dtd::HasChild(TypeId parent, TypeId child) const {
  if (child < 0 || child >= NumTypes()) return false;
  // Names are unique, so comparing them needs no lookup.
  for (const std::string& name : contents_[parent].types()) {
    if (name == names_[child]) return true;
  }
  return false;
}

std::string Dtd::ToString() const {
  std::string out;
  auto emit = [&](TypeId id) {
    out += "<!ELEMENT " + names_[id] + " " + contents_[id].ToString() + ">\n";
    for (const AttributeDef& def : attributes_[id]) {
      out += "<!ATTLIST " + names_[id] + " " + def.ToString() + ">\n";
    }
  };
  if (root_ != kNullType) emit(root_);
  for (TypeId id = 0; id < NumTypes(); ++id) {
    if (id != root_) emit(id);
  }
  return out;
}

}  // namespace secview
