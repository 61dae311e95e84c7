//! A minimal JSON object writer for the result lines `run.py` reads.

use flux_bench::json::quote;

/// An object under construction; keys keep insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a pre-rendered JSON value.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Obj {
        self.fields.push(format!("{}:{json}", quote(key)));
        self
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Obj {
        self.raw(key, &quote(value))
    }

    /// Adds a number (non-finite values are written as 0).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Obj {
        let value = if value.is_finite() { value } else { 0.0 };
        self.raw(key, &format!("{value}"))
    }

    /// Adds a whole number.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Obj {
        self.raw(key, &value.to_string())
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Obj {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Renders the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}
