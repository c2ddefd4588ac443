(* The machine-speed reference.  On a shared VM the same job runs at
   different speeds from one minute to the next, with no steal to show
   for it: neighbours on the host share the caches and the memory bus
   (one deterministic pipeline job took 1.7 to 2.3 s of CPU time within
   a single run on a 2-vCPU Xeon VM).  Between timed jobs the end-to-end
   runs therefore time a fixed reference pass, owned by the benchmark
   and built from the standard library only, so that no change to the
   repository's code can speed it up or slow it down.  A job's times are
   scaled by [nominal_s] over the reference time around it: a job on a
   host that is slow for both reads the same as one on a quiet host,
   while a change that slows the job alone still shows in full.

   The pass does what the measured code does most: it allocates
   short-lived blocks, walks a balanced tree and probes a hash table,
   all cache-resident, and it updates random words of a 4 MB table, as
   big as the share of the last-level cache the jobs contend for.  (Over
   150 alternating serve-read and long-txn jobs, normalising by the
   pass cut the spread of medians over 8 jobs from 18-22% to 8-13%;
   without the 4 MB table, long-txn still spread 16%, and an
   allocation-free hashing loop alone tracked nothing.) *)

module IM = Map.Make (Int)

(* Short-lived tuples and lists: minor-heap allocation and collection. *)
let lists () =
  let s = ref 0 in
  for r = 1 to 10 do
    let l = List.init 5000 (fun i -> (i, i * r)) in
    let l = List.map (fun (a, b) -> (b, a + 1)) l in
    s := List.fold_left (fun acc (a, b) -> acc + a - b) !s l
  done;
  !s

(* A persistent map over 4,096 keys: pointer chasing and path copying. *)
let tree () =
  let m = ref IM.empty and x = ref 7 in
  for i = 1 to 30_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !x land 4095 in
    if i land 1 = 0 then m := IM.add k i !m else ignore (IM.find_opt k !m)
  done;
  IM.cardinal !m

(* A hash table over 8,192 keys, three probes to each update. *)
let table () =
  let h = Hashtbl.create 4096 and x = ref 7 and s = ref 0 in
  for i = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !x land 8191 in
    if i land 3 = 0 then Hashtbl.replace h k i
    else s := !s + Option.value (Hashtbl.find_opt h k) ~default:0
  done;
  !s

(* Random read-modify-writes over a 4 MB table: cache misses. *)
let big = lazy (Array.make (1 lsl 19) 0)

let misses () =
  let t = Lazy.force big in
  let mask = Array.length t - 1 and x = ref 0x2545F491 in
  for i = 1 to 1_000_000 do
    let z = !x * 0x1E3779B97F4A7C15 in
    let z = z lxor (z lsr 29) in
    x := z;
    let k = z land mask in
    t.(k) <- t.(k) + i
  done;
  !x

let pass () = lists () + tree () + table () + misses ()

(* The seconds one pass is taken to last: about its time on the 2-vCPU
   Xeon VM the bounds were set on, so scaled times keep that machine's
   magnitudes. *)
let nominal_s = 0.04

let passes_per_point = 3

(* A reference point: the median CPU time of [passes_per_point] passes.
   CPU time, because the hypervisor's steal is not charged to it, and
   the median, so that one pass disturbed by a neighbour's burst does
   not set the scale. *)
let point () =
  Stats.median
    (List.init passes_per_point (fun _ ->
         let c0 = Probe.cpu_s () in
         ignore (Sys.opaque_identity (pass ()));
         Probe.cpu_s () -. c0))

(* The scale for times measured between points [a] and [b]: [nominal_s]
   over the mean reference time at the two. *)
let between a b = nominal_s /. ((a +. b) /. 2.0)
