(* The layer ledger: a traced replay that charges each request's time and
   allocated words to the layers it passes through.

   Spans are recorded from the benchmark's own code, around its calls
   into each layer, into preallocated arrays; they are turned into
   per-layer self times only after the replay ends.  Consecutive spans
   share their boundary clock and word readings, so the spans of a
   request tile it without gaps: whatever the harness itself costs lands
   in the span that follows, and shows as the tracing overhead (traced
   versus untraced replay). *)

module Stm = Tm_stm.Stm
module Server = Tm_serve.Server
module Store = Tm_serve.Store
module Workload = Tm_serve.Workload
module I = Tm_telemetry.Instrument
module Recorder = Tm_telemetry.Latency_recorder

(* {2 Spans} *)

type spans = {
  id : int array;  (** the request (or job step) the span belongs to *)
  layer : int array;
  t0 : int array;
  t1 : int array;
  w0 : Float.Array.t;
  w1 : Float.Array.t;
  mutable n : int;
  mutable dropped : int;
}

let spans cap =
  {
    id = Array.make cap 0;
    layer = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    w0 = Float.Array.make cap 0.0;
    w1 = Float.Array.make cap 0.0;
    n = 0;
    dropped = 0;
  }

let record s ~id ~layer t0 t1 w0 w1 =
  let i = s.n in
  if i >= Array.length s.id then s.dropped <- s.dropped + 1
  else begin
    s.id.(i) <- id;
    s.layer.(i) <- layer;
    s.t0.(i) <- t0;
    s.t1.(i) <- t1;
    Float.Array.set s.w0 i w0;
    Float.Array.set s.w1 i w1;
    s.n <- i + 1
  end

(* Per-layer self time (ns) and self words summed over all spans.  A
   span's self part is its own interval minus the spans of the same id
   whose layer is a child of its layer ([parent.(child) = parent layer,
   or -1 at the top]); a request has at most one span of each parent
   layer. *)
let self_totals s ~parent =
  let layers = Array.length parent in
  let ns = Array.make layers 0.0 and words = Array.make layers 0.0 in
  let dt i = float_of_int (s.t1.(i) - s.t0.(i)) in
  let dw i = Float.Array.get s.w1 i -. Float.Array.get s.w0 i in
  let i = ref 0 in
  while !i < s.n do
    let j = ref !i in
    while !j < s.n && s.id.(!j) = s.id.(!i) do
      incr j
    done;
    for a = !i to !j - 1 do
      let l = s.layer.(a) in
      ns.(l) <- ns.(l) +. dt a;
      words.(l) <- words.(l) +. dw a;
      let p = parent.(l) in
      if p >= 0 then begin
        ns.(p) <- ns.(p) -. dt a;
        words.(p) <- words.(p) -. dw a
      end
    done;
    i := !j
  done;
  (ns, words)

(* {2 Serve replay} *)

let l_request = 0 (* generation + admission, inside Server.iter_requests *)
let l_stm = 1 (* Stm.atomically, minus the Store spans of its attempts *)
let l_store = 2 (* Store.exec_op, one span per attempt *)
let l_telemetry = 3 (* counters, histogram and latency recorder *)
let serve_layers = [| "request"; "stm"; "store"; "telemetry" |]
let serve_parent = [| -1; -1; l_stm; -1 |]

type replay = {
  rp_requests : int;
  rp_admitted : int;
  rp_ns : float;  (** wall time of the slowest domain's stream *)
  rp_words : float;  (** words allocated by the replaying domains *)
  rp_spans : spans array;  (** per domain; empty when untraced *)
  rp_dump : int array;
}

(* A request's ops, in order, through [exec]. *)
let apply exec = function
  | Workload.Single op -> ignore (exec op : Store.result)
  | Workload.Txn ops ->
      List.iter (fun op -> ignore (exec op : Store.result)) ops

(* Replay the admitted request streams of [cfg] through the same calls
   an executor makes (telemetry counters, one [Stm.atomically] per
   request, the per-kind latency histogram, and the latency recorder when
   the configuration is paced), one domain per stream.  The replay is
   closed-loop and sends puts straight to the store rather than through
   the flat combiner.  An attempt that aborts inside the store has no
   store span; its time stays with [stm]. *)
let replay ~traced (cfg : Server.config) =
  Stm.with_algo cfg.Server.c_algo @@ fun () ->
  let store =
    Store.create ~stripes:cfg.Server.c_stripes ~keys:cfg.Server.c_keys ()
  in
  let exec = Store.exec_op store in
  let wl = Server.workload cfg in
  let nd = cfg.Server.c_domains in
  let per_domain = (Server.total_requests cfg + nd - 1) / nd in
  let cap = if traced then per_domain * 8 else 0 in
  let rec_ = Array.init nd (fun _ -> spans cap) in
  let counters () = Array.init 4 (fun _ -> I.counter ~shards:1 ()) in
  let ctr = Array.init nd (fun _ -> counters ()) in
  let by_kind = List.map (fun k -> (k, I.counter ())) Workload.kinds in
  let lat = List.map (fun k -> (k, I.histogram ())) Workload.kinds in
  let recorder =
    Option.map (fun _ -> Recorder.create ~domains:nd ()) cfg.Server.c_arrival
  in
  let admitted = Atomic.make 0 in
  let elapsed = Array.make nd 0 in
  let words = Array.make nd 0.0 in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let worker d () =
    let s = rec_.(d) and c = ctr.(d) in
    let adm = ref 0 in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let start = Probe.now_ns () and start_w = Probe.domain_words () in
    let pt = ref start and pw = ref start_w in
    let id = ref 0 in
    Server.iter_requests cfg wl ~domain:d
      ~f:(fun ~client:_ ~index:_ req ~admitted ->
        let t1 = Probe.now_ns () and w1 = Probe.domain_words () in
        if traced then record s ~id:!id ~layer:l_request !pt t1 !pw w1;
        I.incr c.(0);
        if not admitted then begin
          pt := t1;
          pw := w1
        end
        else begin
          incr adm;
          I.incr c.(1);
          let kind = Workload.kind req in
          I.incr (List.assoc kind by_kind);
          if Workload.mutates req then I.incr c.(2);
          Option.iter (fun r -> Recorder.mark r d ~sched:t1) recorder;
          let t2 = Probe.now_ns () and w2 = Probe.domain_words () in
          if traced then record s ~id:!id ~layer:l_telemetry t1 t2 w1 w2;
          Stm.atomically (fun () ->
              if traced then begin
                let a = Probe.now_ns () and aw = Probe.domain_words () in
                apply exec req;
                let b = Probe.now_ns () and bw = Probe.domain_words () in
                record s ~id:!id ~layer:l_store a b aw bw
              end
              else apply exec req);
          let t3 = Probe.now_ns () and w3 = Probe.domain_words () in
          if traced then record s ~id:!id ~layer:l_stm t2 t3 w2 w3;
          I.observe (List.assoc kind lat) (t3 - t2);
          Option.iter
            (fun r -> Recorder.complete r d ~start:t2 ~finish:t3)
            recorder;
          let t4 = Probe.now_ns () and w4 = Probe.domain_words () in
          if traced then record s ~id:!id ~layer:l_telemetry t3 t4 w3 w4;
          pt := t4;
          pw := w4
        end;
        incr id);
    elapsed.(d) <- !pt - start;
    words.(d) <- !pw -. start_w;
    ignore (Atomic.fetch_and_add admitted !adm)
  in
  let ds = List.init nd (fun d -> Domain.spawn (worker d)) in
  while Atomic.get ready < nd do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  List.iter Domain.join ds;
  {
    rp_requests = Server.total_requests cfg;
    rp_admitted = Atomic.get admitted;
    rp_ns = float_of_int (Array.fold_left max 0 elapsed);
    rp_words = Array.fold_left ( +. ) 0.0 words;
    rp_spans = (if traced then rec_ else [||]);
    rp_dump = Store.dump store;
  }

(* The sequential specification of a one-domain replay: the admitted
   ops folded over a plain array in stream order. *)
let spec_dump (cfg : Server.config) =
  let m = Array.make cfg.Server.c_keys 0 in
  let wl = Server.workload cfg in
  for d = 0 to cfg.Server.c_domains - 1 do
    Server.iter_requests cfg wl ~domain:d
      ~f:(fun ~client:_ ~index:_ req ~admitted ->
        if admitted then apply (Store.spec_op m) req)
  done;
  m

type ledger = {
  lg_self_ns : float array;  (** per layer, per request *)
  lg_words : float array;  (** per layer, per request *)
  lg_traced_ns : float;  (** the traced replay's wall per request *)
  lg_traced_words : float;  (** the traced replay's words per request *)
}

let ledger_of (r : replay) =
  let layers = Array.length serve_layers in
  let ns = Array.make layers 0.0 and words = Array.make layers 0.0 in
  Array.iter
    (fun s ->
      let n, w = self_totals s ~parent:serve_parent in
      Array.iteri (fun i x -> ns.(i) <- ns.(i) +. x) n;
      Array.iteri (fun i x -> words.(i) <- words.(i) +. x) w)
    r.rp_spans;
  let per x = x /. float_of_int r.rp_requests in
  {
    lg_self_ns = Array.map per ns;
    lg_words = Array.map per words;
    lg_traced_ns = per r.rp_ns;
    lg_traced_words = per r.rp_words;
  }

(* Relative tolerance between the summed self times and the traced
   request time: the spans tile each request, so only the clock reads
   at the replay's two ends fall outside them. *)
let time_tolerance = 0.01

let reconcile (l : ledger) (r : replay) =
  let dropped = Array.fold_left (fun a s -> a + s.dropped) 0 r.rp_spans in
  let sum = Array.fold_left ( +. ) 0.0 in
  if dropped > 0 then Error (Printf.sprintf "%d spans dropped" dropped)
  else if
    Float.abs (sum l.lg_words -. l.lg_traced_words)
    *. float_of_int r.rp_requests
    >= 0.5
  then
    Error
      (Printf.sprintf "span words %.4f/req <> replay words %.4f/req"
         (sum l.lg_words) l.lg_traced_words)
  else if
    Float.abs (sum l.lg_self_ns -. l.lg_traced_ns)
    > time_tolerance *. l.lg_traced_ns
  then
    Error
      (Printf.sprintf "span self time %.1f ns/req vs traced %.1f ns/req"
         (sum l.lg_self_ns) l.lg_traced_ns)
  else Ok ()

(* {2 Pipeline spans} *)

let l_runner = 0 (* one Runner.run of the sweep grid *)
let l_exhaustive = 1 (* the schedule enumeration, minus the checks below *)
let l_monitor = 2 (* Monitor.run on one history *)
let l_opacity = 3 (* Opacity.is_opaque on a monitor fallback *)
let pipeline_layers = [| "runner"; "exhaustive"; "monitor"; "opacity" |]
let pipeline_parent = [| -1; -1; l_exhaustive; l_exhaustive |]

type pipeline = {
  pl_self_ns : float array;  (** per layer, whole job *)
  pl_histories : int;
  pl_fallbacks : int;
  pl_non_opaque : int;
  pl_steps : int;  (** simulation steps taken by the sweep's runs *)
  pl_dropped : int;
}

(* The pipeline job on one domain, with the sweep's runs made one by
   one so each [Runner.run] gets a span. *)
let pipeline ~sweep_seed =
  let grid = E2e.sweep_grid ~sweep_seed in
  let s = spans (List.length grid + 700_000) in
  let steps = ref 0 in
  List.iteri
    (fun i (c : Tm_sim.Sweep.config) ->
      let t0 = Probe.now_ns () and w0 = Probe.domain_words () in
      let o = Tm_sim.Runner.run c.Tm_sim.Sweep.tm c.Tm_sim.Sweep.spec in
      let t1 = Probe.now_ns () and w1 = Probe.domain_words () in
      record s ~id:i ~layer:l_runner t0 t1 w0 w1;
      steps := !steps + o.Tm_sim.Runner.steps_taken)
    grid;
  let id = List.length grid in
  let tl2 = Option.get (Tm_impl.Registry.find "tl2") in
  let histories = ref 0 and fallbacks = ref 0 and non_opaque = ref 0 in
  let t0 = Probe.now_ns () and w0 = Probe.domain_words () in
  Tm_sim.Sweep.Exhaustive.run tl2 ~nprocs:2 ~ntvars:1
    ~invocations:E2e.mc_invocations ~depth:E2e.mc_depth ~on_history:(fun h _ ->
      incr histories;
      let a = Probe.now_ns () and aw = Probe.domain_words () in
      let v = Tm_safety.Monitor.run h in
      let b = Probe.now_ns () and bw = Probe.domain_words () in
      record s ~id ~layer:l_monitor a b aw bw;
      match v with
      | Tm_safety.Monitor.Accepted -> ()
      | Tm_safety.Monitor.No_witness _ ->
          incr fallbacks;
          let opaque = Tm_safety.Opacity.is_opaque h in
          let c = Probe.now_ns () and cw = Probe.domain_words () in
          record s ~id ~layer:l_opacity b c bw cw;
          if not opaque then incr non_opaque);
  let t1 = Probe.now_ns () and w1 = Probe.domain_words () in
  record s ~id ~layer:l_exhaustive t0 t1 w0 w1;
  let ns, _ = self_totals s ~parent:pipeline_parent in
  {
    pl_self_ns = ns;
    pl_histories = !histories;
    pl_fallbacks = !fallbacks;
    pl_non_opaque = !non_opaque;
    pl_steps = !steps;
    pl_dropped = s.dropped;
  }

(* Write a replay's spans as tab-separated lines: request id, layer,
   start and end (ns since the first span), words at start and end
   (relative to the first span). *)
let write_tsv path ~layers s =
  let oc = open_out path in
  output_string oc "id\tlayer\tstart_ns\tend_ns\tstart_words\tend_words\n";
  let t = if s.n > 0 then s.t0.(0) else 0 in
  let w = if s.n > 0 then Float.Array.get s.w0 0 else 0.0 in
  for i = 0 to s.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.0f\t%.0f\n" s.id.(i)
      layers.(s.layer.(i))
      (s.t0.(i) - t) (s.t1.(i) - t)
      (Float.Array.get s.w0 i -. w)
      (Float.Array.get s.w1 i -. w)
  done;
  close_out oc
