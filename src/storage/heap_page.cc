#include "storage/heap_page.h"

#include <cstring>

namespace harbor {

namespace {

uint16_t ReadU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

void WriteU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }

}  // namespace

uint16_t HeapPage::CapacityFor(uint32_t tuple_bytes) {
  // capacity slots need capacity*tuple_bytes payload plus ceil(capacity/8)
  // bitmap bytes within (kPageSize - kHeaderBytes). Solve by a short search
  // from the bitmap-free upper bound.
  const uint32_t usable = kPageSize - kHeaderBytes;
  uint32_t cap = usable / tuple_bytes;
  while (cap > 0 && cap * tuple_bytes + (cap + 7) / 8 > usable) --cap;
  return static_cast<uint16_t>(cap);
}

void HeapPage::Init() {
  std::memset(data_, 0, kPageSize);
  WriteU16(data_ + 8, CapacityFor(tuple_bytes_));
  WriteU16(data_ + 10, 0);
}

Lsn HeapPage::page_lsn() const {
  Lsn lsn;
  std::memcpy(&lsn, data_, 8);
  return lsn;
}

void HeapPage::set_page_lsn(Lsn lsn) { std::memcpy(data_, &lsn, 8); }

uint16_t HeapPage::occupied_count() const { return ReadU16(data_ + 10); }

uint32_t HeapPage::BitmapBytes() const { return (capacity() + 7) / 8; }

void HeapPage::SetOccupied(uint16_t slot, bool occupied) {
  uint8_t& byte = Bitmap()[slot / 8];
  if (occupied) {
    byte |= static_cast<uint8_t>(1u << (slot % 8));
  } else {
    byte &= static_cast<uint8_t>(~(1u << (slot % 8)));
  }
}

uint8_t* HeapPage::TupleData(uint16_t slot) {
  return data_ + SlotsOffset() + static_cast<uint32_t>(slot) * tuple_bytes_;
}

const uint8_t* HeapPage::TupleData(uint16_t slot) const {
  return data_ + SlotsOffset() + static_cast<uint32_t>(slot) * tuple_bytes_;
}

Result<uint16_t> HeapPage::InsertTuple(const uint8_t* tuple) {
  const uint16_t cap = capacity();
  for (uint16_t slot = 0; slot < cap; ++slot) {
    if (!IsOccupied(slot)) {
      SetOccupied(slot, true);
      std::memcpy(TupleData(slot), tuple, tuple_bytes_);
      WriteU16(data_ + 10, static_cast<uint16_t>(occupied_count() + 1));
      return slot;
    }
  }
  return Status::OutOfRange("page full");
}

Status HeapPage::FreeSlot(uint16_t slot) {
  if (slot >= capacity()) return Status::OutOfRange("slot out of range");
  if (!IsOccupied(slot)) return Status::NotFound("slot not occupied");
  SetOccupied(slot, false);
  std::memset(TupleData(slot), 0, tuple_bytes_);
  WriteU16(data_ + 10, static_cast<uint16_t>(occupied_count() - 1));
  return Status::OK();
}

Status HeapPage::InsertTupleAt(uint16_t slot, const uint8_t* tuple) {
  if (slot >= capacity()) return Status::OutOfRange("slot out of range");
  if (!IsOccupied(slot)) {
    SetOccupied(slot, true);
    WriteU16(data_ + 10, static_cast<uint16_t>(occupied_count() + 1));
  }
  std::memcpy(TupleData(slot), tuple, tuple_bytes_);
  return Status::OK();
}

}  // namespace harbor
