(* In-memory span recorder for the traced run: workload -> phase (setup /
   measure) -> client op (keyed by corr) -> step (tagged with the layer it
   was charged to). Host times are monotonic-clock ns relative to the
   recorder's creation; virtual times are engine ns. Nothing is written
   until [write], at the end of the run. *)

(* Growable int buffer: fixed-width records, no per-record allocation. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int; width : int }

  let create width = { a = Array.make (width * 4096) 0; n = 0; width }

  let push t fields =
    let need = (t.n + 1) * t.width in
    if need > Array.length t.a then begin
      let b = Array.make (2 * Array.length t.a) 0 in
      Array.blit t.a 0 b 0 (t.n * t.width);
      t.a <- b
    end;
    Array.blit fields 0 t.a (t.n * t.width) t.width;
    t.n <- t.n + 1

  let get t i f = t.a.((i * t.width) + f)
end

type phase = {
  pname : string;
  host_begin : int;
  host_end : int;
  vt_begin : int64;
  vt_end : int64;
}

type t = {
  origin : int64;
  mutable phases : phase list;
  ops : Ibuf.t;  (** corr, client, host begin, host end, vt begin, vt end *)
  steps : Ibuf.t;  (** host begin, host duration, layer index, vt *)
  scratch4 : int array;
  scratch6 : int array;
}

let now_ns () = Monotonic_clock.now ()

let create () =
  {
    origin = now_ns ();
    phases = [];
    ops = Ibuf.create 6;
    steps = Ibuf.create 4;
    scratch4 = Array.make 4 0;
    scratch6 = Array.make 6 0;
  }

let rel t ns = Int64.to_int (Int64.sub ns t.origin)

let phase t ~name ~host_begin ~host_end ~vt_begin ~vt_end =
  t.phases <-
    { pname = name; host_begin = rel t host_begin; host_end = rel t host_end; vt_begin; vt_end }
    :: t.phases

let op t ~corr ~client ~host_begin ~host_end ~vt_begin ~vt_end =
  let s = t.scratch6 in
  s.(0) <- corr;
  s.(1) <- client;
  s.(2) <- rel t host_begin;
  s.(3) <- rel t host_end;
  s.(4) <- Int64.to_int vt_begin;
  s.(5) <- Int64.to_int vt_end;
  Ibuf.push t.ops s

let step t ~host_begin ~host_dur ~layer ~vt =
  let s = t.scratch4 in
  s.(0) <- rel t host_begin;
  s.(1) <- host_dur;
  s.(2) <- Layers.index layer;
  s.(3) <- Int64.to_int vt;
  Ibuf.push t.steps s

let step_count t = t.steps.Ibuf.n
let op_count t = t.ops.Ibuf.n

(* One JSON object per line; steps and ops name their parent phase. *)
let write t ~path ~workload ~seed =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"span\":\"workload\",\"name\":%S,\"seed\":%d}\n" workload seed;
      List.iter
        (fun p ->
          Printf.fprintf oc
            "{\"span\":\"phase\",\"name\":%S,\"parent\":%S,\"host_begin_ns\":%d,\"host_end_ns\":%d,\"vt_begin_ns\":%Ld,\"vt_end_ns\":%Ld}\n"
            p.pname workload p.host_begin p.host_end p.vt_begin p.vt_end)
        (List.rev t.phases);
      let o = t.ops in
      for i = 0 to o.Ibuf.n - 1 do
        let g = Ibuf.get o i in
        Printf.fprintf oc
          "{\"span\":\"op\",\"parent\":\"measure\",\"corr\":%d,\"client\":%d,\"host_begin_ns\":%d,\"host_end_ns\":%d,\"vt_begin_ns\":%d,\"vt_end_ns\":%d}\n"
          (g 0) (g 1) (g 2) (g 3) (g 4) (g 5)
      done;
      let s = t.steps in
      for i = 0 to s.Ibuf.n - 1 do
        let g = Ibuf.get s i in
        Printf.fprintf oc
          "{\"span\":\"step\",\"parent\":\"measure\",\"host_begin_ns\":%d,\"host_ns\":%d,\"layer\":%S,\"vt_ns\":%d}\n"
          (g 0) (g 1)
          (Layers.name Layers.layers.(g 2))
          (g 3)
      done)
