#ifndef HARBOR_STORAGE_HEAP_PAGE_H_
#define HARBOR_STORAGE_HEAP_PAGE_H_

#include <cstdint>
#include <cstring>

#include "common/result.h"
#include "common/types.h"

namespace harbor {

/// \brief A slotted-page view over a raw 4 KB buffer holding fixed-width
/// tuples.
///
/// Layout:
///   [0..8)    page LSN (used only when ARIES logging is enabled; HARBOR
///             mode leaves it zero)
///   [8..10)   slot capacity
///   [10..12)  occupied slot count
///   [12..16)  reserved
///   [16..16+ceil(cap/8))  occupancy bitmap
///   [...]     slots, `tuple_bytes` each
///
/// Pages are densely packed: insertion fills any free slot before a new page
/// is appended to the file (§6.1.1). HeapPage is a non-owning view; the
/// buffer pool owns the bytes.
class HeapPage {
 public:
  HeapPage(uint8_t* data, uint32_t tuple_bytes)
      : data_(data), tuple_bytes_(tuple_bytes) {}

  /// Number of slots a page can hold for the given tuple size.
  static uint16_t CapacityFor(uint32_t tuple_bytes);

  /// Formats a fresh page: writes the header and clears the bitmap.
  void Init();

  Lsn page_lsn() const;
  void set_page_lsn(Lsn lsn);

  uint16_t capacity() const {
    uint16_t cap;
    std::memcpy(&cap, data_ + 8, sizeof(cap));
    return cap;
  }
  uint16_t occupied_count() const;
  bool full() const { return occupied_count() >= capacity(); }
  bool IsOccupied(uint16_t slot) const {
    return (Bitmap()[slot / 8] >> (slot % 8)) & 1;
  }

  /// Pointer to the packed tuple bytes in `slot` (occupied or not).
  uint8_t* TupleData(uint16_t slot);
  const uint8_t* TupleData(uint16_t slot) const;

  /// Copies `tuple_bytes` from `tuple` into the first free slot. Returns the
  /// slot index, or OutOfRange if the page is full.
  Result<uint16_t> InsertTuple(const uint8_t* tuple);

  /// Physically clears a slot (used by transaction rollback and recovery
  /// Phase 1, which *remove* tuples, unlike the timestamped logical delete).
  Status FreeSlot(uint16_t slot);

  /// Marks a slot occupied and copies tuple bytes into it; used by ARIES
  /// redo, which must reproduce an insert at its original slot.
  Status InsertTupleAt(uint16_t slot, const uint8_t* tuple);

 private:
  static constexpr uint32_t kHeaderBytes = 16;

  uint32_t BitmapBytes() const;
  uint8_t* Bitmap() { return data_ + kHeaderBytes; }
  const uint8_t* Bitmap() const { return data_ + kHeaderBytes; }
  uint32_t SlotsOffset() const { return kHeaderBytes + BitmapBytes(); }
  void SetOccupied(uint16_t slot, bool occupied);

  uint8_t* data_;
  uint32_t tuple_bytes_;
};

}  // namespace harbor

#endif  // HARBOR_STORAGE_HEAP_PAGE_H_
