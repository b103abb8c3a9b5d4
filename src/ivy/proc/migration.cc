// Process migration.
//
// "When a process is migrated, a forwarding pointer is put into its PCB
// ... a process migration must: send the PCB of the process to the
// destination processor ..., copy the current page of the process's stack
// ... and transfer the ownership of the page, transfer the ownership of
// all the pages in the upper portion of the stack ..., and put the PCB in
// the ready queue on the destination processor."
//
// The pull side (an idle node asking for work) lives in load_balance.cc;
// this file implements the grant/refuse decision and reincarnation.
#include "ivy/base/log.h"
#include "ivy/proc/scheduler.h"

namespace ivy::proc {

void Scheduler::on_migrate_ask(net::Message&& msg) {
  const auto ask = std::any_cast<MigrateAskPayload>(msg.payload);

  auto refuse = [&] {
    emit({.kind = EventKind::kMigrationRefused});
    rpc_.reply_to(msg, MigrateReplyPayload{}, 16);
  };

  // "When such a number is greater than the upper threshold, the
  // processor will migrate processes to other processors upon requests."
  if (proc_count_ <= config_.upper_threshold) {
    refuse();
    return;
  }
  // Oldest ready migratable process (back of the LIFO queue): it has
  // waited longest and its working set is least likely to be hot here.
  auto victim_it = ready_.end();
  for (auto it = ready_.rbegin(); it != ready_.rend(); ++it) {
    if ((*it)->migratable) {
      victim_it = std::prev(it.base());
      break;
    }
  }
  if (victim_it == ready_.end()) {
    refuse();
    return;
  }
  Pcb& victim = **victim_it;
  ready_.erase(victim_it);

  auto transfer = std::make_shared<PcbTransfer>();
  transfer->original = victim.id;
  transfer->migratable = victim.migratable;
  transfer->fiber = std::move(victim.fiber);
  transfer->stack_base = victim.stack_base;
  transfer->stack_pages = victim.stack_pages;
  transfer->current_stack_page = victim.current_stack_page;
  transfer->block_epoch = victim.block_epoch;

  // Stack handoff: ownership of every stack page we own moves directly
  // ("only requires setting the protection bits"); the current page also
  // carries its contents so the destination dispatcher does not fault.
  const auto& geo = svm_.geometry();
  for (std::uint32_t i = 0; i < victim.stack_pages; ++i) {
    const PageId page =
        geo.page_of(victim.stack_base + static_cast<SvmAddr>(i) * geo.page_size);
    if (!svm_.owns(page)) continue;  // never touched or owned elsewhere
    if (svm_.table().at(page).fault_in_progress) continue;  // busy; leave it
    const bool with_body = i == victim.current_stack_page;
    transfer->pages.push_back(svm_.detach_page(page, msg.origin, with_body));
  }

  victim.state = ProcState::kMigrated;
  victim.forward_to = ask.reserved;
  --proc_count_;
  emit({.kind = EventKind::kMigratedOut, .id = victim.id.pcb_index,
        .peer = msg.origin});
  IVY_DEBUG() << "node " << node_ << " migrates proc " << victim.id.pcb_index
              << " to node " << msg.origin;

  MigrateReplyPayload reply;
  reply.accepted = true;
  reply.transfer = std::move(transfer);
  rpc_.reply_to(msg, reply, reply.transfer->wire_bytes());
}

void Scheduler::install_transfer(Pcb& slot, PcbTransfer&& transfer) {
  IVY_CHECK(slot.state == ProcState::kReserved);
  slot.migratable = transfer.migratable;
  slot.fiber = std::move(transfer.fiber);
  slot.stack_base = transfer.stack_base;
  slot.stack_pages = transfer.stack_pages;
  slot.current_stack_page = transfer.current_stack_page;
  slot.block_epoch = transfer.block_epoch;
  for (const svm::PageTransfer& page : transfer.pages) {
    svm_.adopt_page(page);
  }
  ++proc_count_;
  slot.state = ProcState::kBlocked;
  slot.pending_wakeup = false;  // it becomes ready right away anyway
  make_ready(slot);
}

}  // namespace ivy::proc
