//! A flat JSON object writer (numbers and string lists only).

pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    pub fn new() -> Self {
        Self { fields: Vec::new() }
    }

    pub fn num(&mut self, key: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.fields.push(format!("\"{key}\": {value}"));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.fields
            .push(format!("\"{key}\": \"{}\"", escape(value)));
    }

    pub fn strs(&mut self, key: &str, values: &[String]) {
        let items: Vec<String> = values
            .iter()
            .map(|v| format!("\"{}\"", escape(v)))
            .collect();
        self.fields
            .push(format!("\"{key}\": [{}]", items.join(", ")));
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}
