#include "core/instance.h"

#include "common/serial.h"

namespace cactis::core {

Instance Instance::Create(InstanceId id, const schema::ObjectClass& cls) {
  Instance inst;
  inst.id_ = id;
  inst.class_id_ = cls.id();
  inst.attrs_.reserve(cls.attributes().size());
  for (const schema::AttributeDef& def : cls.attributes()) {
    AttrSlot slot;
    slot.value = def.default_value;
    slot.out_of_date = def.is_derived();
    inst.attrs_.push_back(std::move(slot));
  }
  inst.ports_.resize(cls.ports().size());
  return inst;
}

void Instance::MigrateTo(const schema::ObjectClass& cls) {
  for (size_t i = attrs_.size(); i < cls.attributes().size(); ++i) {
    const schema::AttributeDef& def = cls.attributes()[i];
    AttrSlot slot;
    slot.value = def.default_value;
    slot.out_of_date = def.is_derived();
    attrs_.push_back(std::move(slot));
  }
  if (ports_.size() < cls.ports().size()) {
    ports_.resize(cls.ports().size());
  }
}

std::string Instance::Serialize() const {
  BinaryWriter w;
  w.PutU64(id_.value);
  w.PutU64(class_id_.value);
  w.PutU32(static_cast<uint32_t>(attrs_.size()));
  for (const AttrSlot& slot : attrs_) {
    uint8_t flags = 0;
    if (slot.out_of_date) flags |= 1;
    if (slot.subscribed) flags |= 2;
    w.PutU8(flags);
    ValueCodec::Encode(slot.value, &w);
  }
  w.PutU32(static_cast<uint32_t>(ports_.size()));
  for (const std::vector<EdgeRecord>& edges : ports_) {
    w.PutU32(static_cast<uint32_t>(edges.size()));
    for (const EdgeRecord& e : edges) {
      w.PutU64(e.id.value);
      w.PutU64(e.peer.value);
      w.PutU32(e.peer_port);
    }
  }
  return w.Take();
}

Result<Instance> Instance::Deserialize(std::string_view payload,
                                       const schema::Catalog& catalog) {
  BinaryReader r(payload);
  Instance inst;
  CACTIS_ASSIGN_OR_RETURN(uint64_t id, r.GetU64());
  CACTIS_ASSIGN_OR_RETURN(uint64_t cls, r.GetU64());
  inst.id_ = InstanceId(id);
  inst.class_id_ = ClassId(cls);
  CACTIS_ASSIGN_OR_RETURN(uint32_t attr_count, r.GetU32());
  inst.attrs_.reserve(attr_count);
  for (uint32_t i = 0; i < attr_count; ++i) {
    CACTIS_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
    CACTIS_ASSIGN_OR_RETURN(Value v, ValueCodec::Decode(&r));
    AttrSlot slot;
    slot.value = std::move(v);
    slot.out_of_date = (flags & 1) != 0;
    slot.subscribed = (flags & 2) != 0;
    inst.attrs_.push_back(std::move(slot));
  }
  CACTIS_ASSIGN_OR_RETURN(uint32_t port_count, r.GetU32());
  inst.ports_.resize(port_count);
  for (uint32_t p = 0; p < port_count; ++p) {
    CACTIS_ASSIGN_OR_RETURN(uint32_t edge_count, r.GetU32());
    inst.ports_[p].reserve(edge_count);
    for (uint32_t e = 0; e < edge_count; ++e) {
      EdgeRecord edge;
      CACTIS_ASSIGN_OR_RETURN(uint64_t eid, r.GetU64());
      CACTIS_ASSIGN_OR_RETURN(uint64_t peer, r.GetU64());
      CACTIS_ASSIGN_OR_RETURN(uint32_t peer_port, r.GetU32());
      edge.id = EdgeId(eid);
      edge.peer = InstanceId(peer);
      edge.peer_port = peer_port;
      inst.ports_[p].push_back(edge);
    }
  }

  const schema::ObjectClass* cls_def = catalog.GetClass(inst.class_id_);
  if (cls_def == nullptr) {
    return Status::Internal("stored instance references unknown class id " +
                            std::to_string(cls));
  }
  inst.MigrateTo(*cls_def);
  return inst;
}

}  // namespace cactis::core
