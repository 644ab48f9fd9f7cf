(* Deterministic fault-injection plans, carried by the engine like Metrics.

   Every decision is a pure function of (fault seed, content key,
   occurrence number, fault class) — NOT a draw from a shared sequential
   stream. Callers pass a key derived from the thing being faulted (message
   route and payload kind, frame bytes, NAND page coordinates); the nth
   fault decision for a given key is then independent of how unrelated
   decisions interleave. That property is what lets the same-tick ordering
   sanitizer rerun a workload with a perturbed tie-break without the fault
   pattern itself shifting underneath it: reordering two independent events
   inside one tick reorders their draws, but not their outcomes.

   The fault seed is the run seed xor a fixed salt, NOT the engine's root
   RNG — forking the root would advance its state and perturb every
   workload that samples from it. Every predicate guards on [rate > 0.]
   before touching the occurrence table, so a zero-rate plan does no work
   and is bit-identical to an absent plan. *)

type crash_window = { device : string; at_ns : int64; down_ns : int64 }

type plan = {
  msg_loss : float;
  msg_dup : float;
  msg_delay : float;
  msg_jitter_ns : int64;
  msg_corrupt : float;
  frame_loss : float;
  frame_reorder : float;
  frame_reorder_ns : int64;
  nand_read_fail : float;
  nand_bit_flip : float;
  crashes : crash_window list;
}

let zero =
  {
    msg_loss = 0.;
    msg_dup = 0.;
    msg_delay = 0.;
    msg_jitter_ns = 0L;
    msg_corrupt = 0.;
    frame_loss = 0.;
    frame_reorder = 0.;
    frame_reorder_ns = 0L;
    nand_read_fail = 0.;
    nand_bit_flip = 0.;
    crashes = [];
  }

let default_chaos =
  {
    msg_loss = 0.02;
    msg_dup = 0.01;
    msg_delay = 0.05;
    msg_jitter_ns = 2_000L;
    msg_corrupt = 0.005;
    frame_loss = 0.02;
    frame_reorder = 0.05;
    frame_reorder_ns = 1_500L;
    nand_read_fail = 0.01;
    nand_bit_flip = 0.002;
    crashes = [];
  }

let is_zero p =
  p.msg_loss = 0. && p.msg_dup = 0. && p.msg_delay = 0. && p.msg_corrupt = 0.
  && p.frame_loss = 0. && p.frame_reorder = 0. && p.nand_read_fail = 0.
  && p.nand_bit_flip = 0. && p.crashes = []

type counters = {
  messages_lost : Metrics.counter;
  messages_duplicated : Metrics.counter;
  messages_delayed : Metrics.counter;
  messages_corrupted : Metrics.counter;
  frames_lost : Metrics.counter;
  frames_reordered : Metrics.counter;
  nand_read_errors : Metrics.counter;
  nand_bit_flips : Metrics.counter;
  crashes_injected : Metrics.counter;
  revives_injected : Metrics.counter;
}

type t = {
  plan : plan;
  seed : int64;
  (* (content key, fault class) -> occurrences so far: repeated identical
     keys (retransmits, re-reads) get fresh, still order-independent
     decisions. *)
  occ : (int64 * int, int) Hashtbl.t;
  c : counters option;
}

let actor = "faults"

(* A zero plan registers nothing: registered-but-zero counters would still
   appear in Metrics.snapshot and change every existing export. *)
let create ?(plan = zero) ~seed metrics =
  let seed = Int64.logxor seed 0x6661756c74735fL in
  let c =
    if is_zero plan then None
    else
      let counter name = Metrics.counter metrics ~actor ~name in
      Some
        {
          messages_lost = counter "messages_lost";
          messages_duplicated = counter "messages_duplicated";
          messages_delayed = counter "messages_delayed";
          messages_corrupted = counter "messages_corrupted";
          frames_lost = counter "frames_lost";
          frames_reordered = counter "frames_reordered";
          nand_read_errors = counter "nand_read_errors";
          nand_bit_flips = counter "nand_bit_flips";
          crashes_injected = counter "crashes_injected";
          revives_injected = counter "revives_injected";
        }
  in
  { plan; seed; occ = Hashtbl.create 64; c }

let active t = t.c <> None

let tally t pick = match t.c with None -> () | Some c -> Metrics.incr (pick c)

(* Content keys are FNV hashes under a dedicated seed; [key_init] exposes
   the seeded streaming state so hot paths can fold route fields directly
   (via the Sanitizer fnv fold) and land on the same key [key_of_string]
   gives for the formatted description. *)
let key_init = Sanitizer.fnv_init 0x6b65795fL
let key_of_string s = Sanitizer.fnv_finish (Sanitizer.fnv_string key_init s)

(* Fault classes: each decision site mixes in a distinct class id so one
   key yields independent decisions per class. *)
let cls_msg_loss = 1
let cls_msg_dup = 2
let cls_msg_delay = 3
let cls_msg_delay_mag = 4
let cls_msg_corrupt = 5
let cls_corrupt_bit = 6
let cls_frame_loss = 7
let cls_frame_reorder = 8
let cls_frame_reorder_mag = 9
let cls_nand_fail = 10
let cls_nand_flip = 11
let cls_nand_flip_bit = 12

(* The nth decision of class [cls] for content [key]: bump the occurrence
   counter and mix (seed, key, cls, n) into one 64-bit value. *)
let draw t ~key ~cls =
  let slot = (key, cls) in
  let n = Option.value (Hashtbl.find_opt t.occ slot) ~default:0 in
  Hashtbl.replace t.occ slot (n + 1);
  Sanitizer.mix64
    (Sanitizer.combine
       (Sanitizer.combine (Int64.logxor t.seed key) (Int64.of_int cls))
       (Int64.of_int n))

(* 53 mixed bits into the mantissa, as Rng.float does. *)
let draw_u01 t ~key ~cls =
  Int64.to_float (Int64.shift_right_logical (draw t ~key ~cls) 11)
  *. (1.0 /. 9007199254740992.0)

let draw_int t ~key ~cls bound =
  Int64.to_int
    (Int64.rem
       (Int64.shift_right_logical (draw t ~key ~cls) 1)
       (Int64.of_int bound))

let roll t rate ~key ~cls = rate > 0. && draw_u01 t ~key ~cls < rate

let drop_message t ~key =
  let hit = roll t t.plan.msg_loss ~key ~cls:cls_msg_loss in
  if hit then tally t (fun c -> c.messages_lost);
  hit

let duplicate_message t ~key =
  let hit = roll t t.plan.msg_dup ~key ~cls:cls_msg_dup in
  if hit then tally t (fun c -> c.messages_duplicated);
  hit

let message_jitter t ~key =
  if roll t t.plan.msg_delay ~key ~cls:cls_msg_delay && t.plan.msg_jitter_ns > 0L
  then begin
    tally t (fun c -> c.messages_delayed);
    Int64.of_int
      (1
      + draw_int t ~key ~cls:cls_msg_delay_mag
          (Int64.to_int t.plan.msg_jitter_ns))
  end
  else 0L

let corrupt_message t ~key =
  let hit = roll t t.plan.msg_corrupt ~key ~cls:cls_msg_corrupt in
  if hit then tally t (fun c -> c.messages_corrupted);
  hit

let corrupt_bit t ~key ~len =
  if len <= 0 then 0 else draw_int t ~key ~cls:cls_corrupt_bit (len * 8)

let drop_frame t ~key =
  let hit = roll t t.plan.frame_loss ~key ~cls:cls_frame_loss in
  if hit then tally t (fun c -> c.frames_lost);
  hit

let reorder_delay t ~key =
  if
    roll t t.plan.frame_reorder ~key ~cls:cls_frame_reorder
    && t.plan.frame_reorder_ns > 0L
  then begin
    tally t (fun c -> c.frames_reordered);
    Int64.of_int
      (1
      + draw_int t ~key ~cls:cls_frame_reorder_mag
          (Int64.to_int t.plan.frame_reorder_ns))
  end
  else 0L

let nand_read_fails t ~key =
  let hit = roll t t.plan.nand_read_fail ~key ~cls:cls_nand_fail in
  if hit then tally t (fun c -> c.nand_read_errors);
  hit

let nand_bit_flip t ~key ~len =
  if roll t t.plan.nand_bit_flip ~key ~cls:cls_nand_flip && len > 0 then begin
    tally t (fun c -> c.nand_bit_flips);
    Some (draw_int t ~key ~cls:cls_nand_flip_bit (len * 8))
  end
  else None

let crashes t = t.plan.crashes
let note_crash t = tally t (fun c -> c.crashes_injected)
let note_revive t = tally t (fun c -> c.revives_injected)

(* Checkpointing needs only the occurrence table: the plan and salted seed
   are rebuilt from the experiment spec, and decisions are pure functions
   of (seed, key, class, occurrence). Restoring occurrence counts makes a
   resumed run draw the exact continuation of the interrupted stream. *)
let save_state t w =
  Snapshot.W.list w
    (fun w ((key, cls), n) ->
      Snapshot.W.int64 w key;
      Snapshot.W.varint w cls;
      Snapshot.W.varint w n)
    (Detmap.bindings t.occ)

let restore_state t r =
  Hashtbl.reset t.occ;
  List.iter
    (fun (slot, n) -> Hashtbl.replace t.occ slot n)
    (Snapshot.R.list r (fun r ->
         let key = Snapshot.R.int64 r in
         let cls = Snapshot.R.varint r in
         ((key, cls), Snapshot.R.varint r)))
