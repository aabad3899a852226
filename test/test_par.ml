(* The domain pool and the parallel campaign driver.  The contract
   under test is determinism: result order is a pure function of the
   input — independent of jobs, chunks and scheduling — so a parallel
   campaign report is byte-identical to the sequential one. *)

module Par = Csrtl_par.Par
module C = Csrtl_core
module F = Csrtl_fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_map_is_map () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun p ->
          List.iter
            (fun chunks ->
              Alcotest.(check (list int))
                (Printf.sprintf "jobs=%d chunks=%d" jobs chunks)
                expected
                (Par.map ~chunks p (fun x -> x * x) xs))
            [ 1; 3; 7; 64; 200 ]))
    [ 1; 2; 4 ]

let test_edge_sizes () =
  Par.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "empty" [] (Par.map p succ []);
      Alcotest.(check (list int)) "singleton" [ 42 ] (Par.map p succ [ 41 ]);
      (* more chunks than items *)
      Alcotest.(check (list int)) "tiny list, many chunks" [ 1; 2 ]
        (Par.map ~chunks:32 p succ [ 0; 1 ]))

let test_exception_propagates () =
  Par.with_pool ~jobs:4 (fun p ->
      (match
         Par.map p
           (fun x -> if x = 13 then failwith "poison" else x)
           (List.init 50 Fun.id)
       with
      | _ -> Alcotest.fail "expected the worker exception to re-raise"
      | exception Par.Task_error (idx, Failure msg) ->
        (* the wrapper names the failing input, so a campaign knows
           which fault run died *)
        check_int "failing index" 13 idx;
        Alcotest.(check string) "first failure" "poison" msg);
      (* the pool survives a failed job *)
      Alcotest.(check (list int)) "pool reusable" [ 2; 3 ]
        (Par.map p succ [ 1; 2 ]))

let test_run_supervised () =
  (match Par.run_supervised (fun () -> 41 + 1) with
   | Par.Done 42 -> ()
   | _ -> Alcotest.fail "healthy task must come back Done");
  (* a flaky task succeeds on the retry *)
  let tries = ref 0 in
  (match
     Par.run_supervised ~retries:1 (fun () ->
         incr tries;
         if !tries = 1 then failwith "flake" else !tries)
   with
   | Par.Done 2 -> ()
   | _ -> Alcotest.fail "retry must rescue a one-off failure");
  (* a persistent crash is classified, not raised *)
  (match Par.run_supervised ~retries:1 (fun () -> failwith "always") with
   | Par.Crashed { attempts = 2; error } ->
     check_bool "error names the exception" true
       (String.length error > 0)
   | _ -> Alcotest.fail "persistent failure must classify as Crashed");
  (* a zero budget trips on any measurable run and reports the
     configured budget alongside the measured elapsed time *)
  (match
     Par.run_supervised ~budget:0. ~retries:0 (fun () ->
         ignore (Sys.opaque_identity (Digest.string (String.make 1_000_000 'x'))))
   with
   | Par.Over_budget { attempts = 1; budget; elapsed } ->
     check_bool "configured budget reported" true (budget = 0.);
     check_bool "measured elapsed reported" true (elapsed > 0.)
   | _ -> Alcotest.fail "zero budget must classify as Over_budget");
  (* an attempt that burned the whole budget earns no retry: the
     deadline between attempts fires even with retries to spare *)
  let tries = ref 0 in
  (match
     Par.run_supervised ~budget:0. ~retries:5 (fun () ->
         incr tries;
         ignore (Sys.opaque_identity (Digest.string (String.make 1_000_000 'x'))))
   with
   | Par.Over_budget { attempts = 1; _ } ->
     check_int "no retry past the deadline" 1 !tries
   | _ -> Alcotest.fail "budget overrun past deadline must not retry");
  (* same for a crash once the deadline has passed: classified
     immediately instead of retrying a task that cannot make it *)
  let tries = ref 0 in
  match
    Par.run_supervised ~budget:0. ~retries:5 (fun () ->
        incr tries;
        ignore (Sys.opaque_identity (Digest.string (String.make 1_000_000 'x')));
        failwith "slow crash")
  with
  | Par.Crashed { attempts = 1; error } ->
    check_int "no crash retry past the deadline" 1 !tries;
    check_bool "error kept" true (String.length error > 0)
  | _ -> Alcotest.fail "crash past deadline must classify immediately"

let test_nested_map_runs_inline () =
  Par.with_pool ~jobs:3 (fun p ->
      let res =
        Par.map p
          (fun x ->
            (* a worker fanning out again must not deadlock on the
               pool it is running on *)
            List.fold_left ( + ) 0 (Par.map p (fun y -> x * y) [ 1; 2; 3 ]))
          [ 1; 10 ]
      in
      Alcotest.(check (list int)) "nested" [ 6; 60 ] res)

let test_worker_stats_account_for_everything () =
  Par.with_pool ~jobs:2 (fun p ->
      let xs = List.init 37 Fun.id in
      ignore (Par.map p succ xs);
      let stats = Par.last_stats p in
      check_int "one slot per worker" 2 (Array.length stats);
      check_int "items accounted" 37
        (Array.fold_left (fun n s -> n + s.Par.w_items) 0 stats))

let test_invalid_jobs () =
  match Par.create ~jobs:0 () with
  | _ -> Alcotest.fail "jobs=0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_chunk_edges () =
  (* oversubscribe: the point is real cross-domain hand-off even when
     the host has one core and the clamp would make the pool solo *)
  Par.with_pool ~oversubscribe:true ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "zero items" [] (Par.map ~chunks:8 p succ []);
      Alcotest.(check (list int)) "one item" [ 1 ] (Par.map ~chunks:8 p succ [ 0 ]);
      (* fewer items than worker domains: some workers find the claim
         counter exhausted and must park again without deadlocking *)
      Alcotest.(check (list int)) "items < domains" [ 1; 2 ]
        (Par.map p succ [ 0; 1 ]);
      (* non-uniform cost: late items are ~100x the early ones, so
         chunk claiming actually rebalances; order must still be the
         input's *)
      let xs = List.init 48 Fun.id in
      let expensive x =
        let acc = ref 0 in
        for i = 1 to x * 2000 do
          acc := !acc lxor i
        done;
        ignore (Sys.opaque_identity !acc);
        x * 3
      in
      Alcotest.(check (list int)) "non-uniform cost"
        (List.map (fun x -> x * 3) xs)
        (Par.map ~chunks:12 p expensive xs))

(* 1 ms of busy work per item: after the first item the 99 left
   measure about 99 ms, well past the gate's break-even *)
let spin x =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 0.001 do
    ()
  done;
  2 * x

(* The measured gate: results in input order wherever the gate falls,
   cheap work stays on the caller, a raise names its index in the
   whole list, and a width below one is refused. *)
let test_map_gated () =
  let xs = List.init 100 Fun.id in
  let doubled = List.map (fun x -> 2 * x) xs in
  let r, domains = Par.map_gated ~width:4 (fun x -> 2 * x) xs in
  Alcotest.(check (list int)) "cheap items" doubled r;
  check_int "cheap items stay on the caller" 1 domains;
  let r, domains = Par.map_gated ~width:4 succ [] in
  Alcotest.(check (list int)) "no items" [] r;
  check_int "no items, no domain" 0 domains;
  let r, domains = Par.map_gated ~width:1 spin xs in
  Alcotest.(check (list int)) "slow items, width one" doubled r;
  check_int "width one, one domain" 1 domains;
  match Par.map_gated ~width:0 succ xs with
  | _ -> Alcotest.fail "width=0 must be rejected"
  | exception Invalid_argument _ -> ()

(* The gate's pool branch, forced at width 2 whatever the host's core
   count (the pool is oversubscribed on one core).  The first ten items
   are free, so the gate falls a dozen items in: the inline prefix and
   the pool's tail are stitched back in input order, a raise in the
   tail names its index in the whole list, and both domains count. *)
let test_map_gated_pool () =
  let xs = List.init 100 Fun.id in
  let doubled = List.map (fun x -> 2 * x) xs in
  let f x = if x < 10 then 2 * x else spin x in
  let r, domains = Par.map_gated ~width:2 f xs in
  Alcotest.(check (list int)) "prefix and tail stitched in order" doubled r;
  check_int "both domains ran items" 2 domains;
  match
    Par.map_gated ~width:2 (fun x -> if x = 57 then failwith "boom" else f x) xs
  with
  | _ -> Alcotest.fail "the raise must propagate"
  | exception Par.Task_error (i, Failure _) ->
    check_int "failing index in the whole list" 57 i

let test_plan_chunks () =
  let pc = Par.plan_chunks in
  check_int "solo pool" 1 (pc ~jobs:1 ~items:1000 ~item_cost_us:1e6);
  check_int "no items" 1 (pc ~jobs:4 ~items:0 ~item_cost_us:1e6);
  check_int "tiny job inlines" 1 (pc ~jobs:4 ~items:10 ~item_cost_us:10.);
  check_int "never more chunks than items" 2
    (pc ~jobs:4 ~items:2 ~item_cost_us:1e6);
  let c = pc ~jobs:4 ~items:1000 ~item_cost_us:1000. in
  check_bool "at least one chunk per worker" true (c >= 4);
  check_bool "bounded rebalancing" true (c <= 16);
  (* a degenerate measured cost must not collapse the plan *)
  let c0 = pc ~jobs:4 ~items:5000 ~item_cost_us:0. in
  check_bool "zero cost still fans out" true (c0 >= 1 && c0 <= 16)

let test_retry_accounting () =
  (* regression: [attempts] must count actual runs — a task that
     succeeds on run 3 consumed exactly 3 runs, and a task that always
     crashes with [retries = n] runs exactly n + 1 times *)
  let tries = ref 0 in
  (match
     Par.run_supervised ~retries:3 (fun () ->
         incr tries;
         if !tries < 3 then failwith "flaky" else !tries)
   with
   | Par.Done 3 -> check_int "flaky task ran thrice" 3 !tries
   | _ -> Alcotest.fail "two flakes with three retries must succeed");
  let tries = ref 0 in
  match Par.run_supervised ~retries:2 (fun () -> incr tries; failwith "x") with
  | Par.Crashed { attempts; _ } ->
    check_int "attempts = actual runs" !tries attempts;
    check_int "runs = retries + 1" 3 !tries
  | _ -> Alcotest.fail "persistent crash must classify as Crashed"

let test_pool_scales_no_alloc_tasks () =
  (* N spin tasks on an N-worker pool must not serialize: the wall
     time stays under twice a single task's.  N is the host's own
     parallelism, so the bound is honest on any machine (on one core
     N = 1 and the check degenerates to map overhead < one task). *)
  let n = Par.available_parallelism () in
  let spin () =
    let acc = ref 0 in
    for i = 1 to 30_000_000 do
      acc := !acc lxor i
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let single = wall spin in
  let batch =
    Par.with_pool ~jobs:n (fun p ->
        wall (fun () -> ignore (Par.map p (fun () -> spin ()) (List.init n (fun _ -> ())))))
  in
  check_bool
    (Printf.sprintf "%d tasks on %d workers: %.0fms vs single %.0fms" n n
       (batch *. 1e3) (single *. 1e3))
    true
    (batch < (2. *. single) +. 0.05)

(* -- parallel campaigns ------------------------------------------------------- *)

let report_string r = Format.asprintf "%a" F.Campaign.pp_report r

let entries_string r =
  String.concat "\n"
    (List.map
       (fun e -> Format.asprintf "%a" F.Campaign.pp_entry e)
       r.F.Campaign.entries)

let test_campaign_parallel_matches_sequential () =
  let m = C.Builder.fig1 () in
  let seq = F.Campaign.run ~jobs:1 m in
  let par = Pools.with_jobs 3 (fun pool -> F.Campaign.run ?pool m) in
  Alcotest.(check string) "report bytes" (report_string seq)
    (report_string par);
  Alcotest.(check string) "entry bytes" (entries_string seq)
    (entries_string par)

let test_campaign_jobs_invariance () =
  (* same seed, different shard counts: byte-identical reports *)
  let m = C.Builder.fig1 () in
  let at jobs =
    Pools.with_jobs jobs (fun pool -> F.Campaign.run ?pool ~jobs m)
  in
  let r1 = at 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=1 vs jobs=%d" jobs)
        (report_string r1 ^ entries_string r1)
        (let r = at jobs in
         report_string r ^ entries_string r))
    [ 2; 8 ]

let test_campaign_shared_pool () =
  let m = C.Builder.fig1 () in
  Par.with_pool ~jobs:2 (fun pool ->
      let r1 = F.Campaign.run ~pool m in
      let r2 = F.Campaign.run ~pool ~limit:5 m in
      check_bool "full campaign" true (r1.F.Campaign.total > 5);
      check_int "limited campaign" 5 r2.F.Campaign.total)

let () =
  Alcotest.run "par"
    [ ( "pool",
        [ Alcotest.test_case "map = List.map at any fan-out" `Quick
            test_map_is_map;
          Alcotest.test_case "edge sizes" `Quick test_edge_sizes;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "supervised tasks" `Quick test_run_supervised;
          Alcotest.test_case "nested map inline" `Quick
            test_nested_map_runs_inline;
          Alcotest.test_case "worker stats" `Quick
            test_worker_stats_account_for_everything;
          Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
          Alcotest.test_case "chunk edge cases" `Quick test_chunk_edges;
          Alcotest.test_case "chunk planning" `Quick test_plan_chunks;
          Alcotest.test_case "measured fan-out gate" `Quick test_map_gated;
          Alcotest.test_case "gate's pool branch at width 2" `Quick
            test_map_gated_pool;
          Alcotest.test_case "retry accounting" `Quick test_retry_accounting;
          Alcotest.test_case "no-alloc tasks scale" `Quick
            test_pool_scales_no_alloc_tasks ] );
      ( "campaign",
        [ Alcotest.test_case "parallel = sequential" `Quick
            test_campaign_parallel_matches_sequential;
          Alcotest.test_case "jobs invariance" `Quick
            test_campaign_jobs_invariance;
          Alcotest.test_case "shared pool" `Quick
            test_campaign_shared_pool ] ) ]
