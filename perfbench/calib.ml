(* Host-speed probe. On a shared 2-core x86-64 VM the speed drifts by up
   to 2x over minutes: process CPU time tracks wall time through the slow
   phases, so the vCPU itself runs slower (contention below the operating
   system), and a CPU clock would not cancel it. A run times this fixed
   piece of work after every untraced episode, and its end-to-end host
   metrics are rescaled by its median time against [reference_s], so drift
   largely cancels while a change to the program under test still shows in
   full.

   The probe shares no code with the program: a small event loop with the
   kind of work the simulator does (a binary heap of timestamped closures,
   hash-table updates, short-lived allocations, byte encoding). Over five
   runs of each workload on that host, rescaling by its median time cut the
   coefficient of variation of ops/s from 5-8% to 0.6-3%. It is CPU-bound
   on purpose: timed beside it, cache-missing traffic over a 32 MiB array
   was noisy and barely followed the slow phases. How far each workload
   follows this probe is {!Workloads.cpu_exponent}. *)

let events = 150_000

let work () =
  let cap = 1024 in
  let times = Array.make cap 0 and fns = Array.make cap ignore in
  let n = ref 0 in
  let swap i j =
    let t = times.(i) and f = fns.(i) in
    times.(i) <- times.(j);
    fns.(i) <- fns.(j);
    times.(j) <- t;
    fns.(j) <- f
  in
  let push t f =
    let i = ref !n in
    times.(!i) <- t;
    fns.(!i) <- f;
    incr n;
    while !i > 0 && times.((!i - 1) / 2) > times.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let t = times.(0) and f = fns.(0) in
    decr n;
    times.(0) <- times.(!n);
    fns.(0) <- fns.(!n);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !n && times.(l + 1) < times.(l) then l + 1 else l in
      if c < !n && times.(c) < times.(!i) then begin
        swap !i c;
        i := c
      end
      else continue := false
    done;
    (t, f)
  in
  let tbl = Hashtbl.create 4096 in
  let buf = Buffer.create 64 in
  let done_ = ref 0 and digest = ref 0 in
  let rec event k t () =
    incr done_;
    let key = (k * 7919) land 4095 in
    let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
    Hashtbl.replace tbl key (if List.length prev > 4 then [ t ] else t :: prev);
    Buffer.clear buf;
    Buffer.add_int64_le buf (Int64.of_int t);
    Buffer.add_string buf "probe";
    digest := !digest lxor Hashtbl.hash (Buffer.contents buf);
    if !done_ + !n < events then begin
      let t' = t + 1 + ((k * 40503) land 1023) in
      push t' (event (k + 1) t')
    end
  in
  for k = 0 to 63 do
    push k (event (k * 1000) k)
  done;
  while !n > 0 do
    let _, f = pop () in
    f ()
  done;
  !digest

(* Seconds: one timing of [work], after a full major collection so that
   the episode's garbage is not charged to it. *)
let sample () =
  Gc.full_major ();
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (work ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

(* Single timings scatter by 10-30% on a busy host; a run takes this many
   after each untraced episode and uses the median of all of them. *)
let samples_per_episode = 5

(* About [sample ()] on the reference host, a 2-core x86-64 Intel Xeon
   virtual machine, in a quiet phase. It only sets the scale: host metrics
   read as wall-clock figures of that host. *)
let reference_s = 0.036
