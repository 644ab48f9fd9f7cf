module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.; m2 = 0.; mn = infinity; mx = neg_infinity; total = 0. }

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let min t = if t.n = 0 then 0. else t.mn
  let max t = if t.n = 0 then 0. else t.mx

  (* Checkpoint support: the accumulator is observable through percentile
     exports, so restore must reproduce every field bit-for-bit. *)
  let save w t =
    Snapshot.W.varint w t.n;
    Snapshot.W.float w t.mean;
    Snapshot.W.float w t.m2;
    Snapshot.W.float w t.mn;
    Snapshot.W.float w t.mx;
    Snapshot.W.float w t.total

  let restore r t =
    t.n <- Snapshot.R.varint r;
    t.mean <- Snapshot.R.float r;
    t.m2 <- Snapshot.R.float r;
    t.mn <- Snapshot.R.float r;
    t.mx <- Snapshot.R.float r;
    t.total <- Snapshot.R.float r

  (* Chan et al. parallel-merge formulas. *)
  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean =
        a.mean +. (delta *. float_of_int b.n /. float_of_int n)
      in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n
            /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        mn = Float.min a.mn b.mn;
        mx = Float.max a.mx b.mx;
        total = a.total +. b.total;
      }
    end
end

module Histogram = struct
  (* Geometric buckets: bucket i covers [base^i, base^(i+1)). With base
     chosen so there are [buckets_per_decade] buckets per factor of ten,
     percentile error is bounded by the bucket width. Values below 1.0 land
     in the underflow bucket (index 0); the value scale is up to the caller
     (we use nanoseconds, so sub-nanosecond underflow is fine). *)
  let buckets_per_decade = 30
  let nbuckets = 16 * buckets_per_decade (* covers up to 10^16 ns *)
  let log_base = log 10. /. float_of_int buckets_per_decade

  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : float;
  }

  let create () = { counts = Array.make (nbuckets + 1) 0; n = 0; sum = 0. }

  let bucket_of v =
    if v < 1. then 0
    else begin
      let i = 1 + int_of_float (log v /. log_base) in
      if i > nbuckets then nbuckets else i
    end

  let upper_edge i =
    if i = 0 then 1. else exp (float_of_int i *. log_base)

  let add t v =
    t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v

  let count t = t.n

  let percentile t p =
    assert (p >= 0. && p <= 100.);
    if t.n = 0 then 0.
    else begin
      let rank =
        let r = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
        if r < 1 then 1 else if r > t.n then t.n else r
      in
      let rec scan i seen =
        if i > nbuckets then upper_edge nbuckets
        else
          let seen = seen + t.counts.(i) in
          if seen >= rank then upper_edge i else scan (i + 1) seen
      in
      scan 0 0
    end

  let merge a b =
    let counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts in
    { counts; n = a.n + b.n; sum = a.sum +. b.sum }

  (* Buckets encode sparsely: soak histograms touch a few dozen of the
     481 buckets, so (index, count) pairs beat a dense dump. *)
  let save w t =
    Snapshot.W.varint w t.n;
    Snapshot.W.float w t.sum;
    let nonzero = ref [] in
    for i = Array.length t.counts - 1 downto 0 do
      if t.counts.(i) <> 0 then nonzero := (i, t.counts.(i)) :: !nonzero
    done;
    Snapshot.W.list w
      (fun w (i, c) ->
        Snapshot.W.varint w i;
        Snapshot.W.varint w c)
      !nonzero

  let restore r t =
    t.n <- Snapshot.R.varint r;
    t.sum <- Snapshot.R.float r;
    Array.fill t.counts 0 (Array.length t.counts) 0;
    List.iter
      (fun (i, c) ->
        if i >= Array.length t.counts then
          raise (Snapshot.R.Corrupt "histogram bucket index out of range");
        t.counts.(i) <- c)
      (Snapshot.R.list r (fun r ->
           let i = Snapshot.R.varint r in
           (i, Snapshot.R.varint r)))
end

type latency_report = {
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let latency_report h s =
  {
    n = Histogram.count h;
    mean = Summary.mean s;
    p50 = Histogram.percentile h 50.;
    p95 = Histogram.percentile h 95.;
    p99 = Histogram.percentile h 99.;
    max = Summary.max s;
  }

let pp_latency_report ppf r =
  Format.fprintf ppf
    "n=%d mean=%.0fns p50=%.0fns p95=%.0fns p99=%.0fns max=%.0fns" r.n r.mean
    r.p50 r.p95 r.p99 r.max
